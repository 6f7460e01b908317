package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the default manifest filename inside the output
// directory.
const ManifestName = "manifest.json"

// ErrFingerprint is returned when a resume attempt finds a manifest
// written under different options (seed, fidelity, trials): resuming
// would silently mix artifacts from two incompatible configurations.
var ErrFingerprint = errors.New("runner: manifest fingerprint mismatch")

// Status is the recorded outcome of one experiment.
type Status string

const (
	// StatusOK: the experiment completed and all artifacts were
	// written.
	StatusOK Status = "ok"
	// StatusFailed: the experiment errored, panicked or exceeded its
	// deadline; Error holds the cause.
	StatusFailed Status = "failed"
	// StatusQuarantined: every granted retry failed with a retryable
	// error. The sweep completed around the cell and reports it;
	// Resume re-runs it.
	StatusQuarantined Status = "quarantined"
)

// ArtifactRecord names one written artifact and its size.
type ArtifactRecord struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
}

// Record is the journal/manifest entry of one experiment. WallMS is
// the cell's wall-clock duration across all attempts; it is journaled
// (so a resumed run can still say how long its completed cells took)
// but stripped before the record enters the manifest, which must stay
// byte-identical across runs and Jobs values.
type Record struct {
	Experiment string           `json:"experiment"`
	Status     Status           `json:"status"`
	Error      string           `json:"error,omitempty"`
	Attempts   int              `json:"attempts"`
	WallMS     float64          `json:"wall_ms,omitempty"`
	Artifacts  []ArtifactRecord `json:"artifacts,omitempty"`
}

// Manifest is the checkpoint a sweep maintains: one record per
// experiment, plus the options fingerprint that produced them. It is
// saved atomically after every experiment, so a killed sweep can be
// resumed from its last completed experiment.
type Manifest struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	Records     []Record `json:"records"`
}

// manifestVersion guards the on-disk schema.
const manifestVersion = 1

// LoadManifest reads a manifest from path. A missing file returns an
// empty manifest and no error, so first runs and resumed runs share
// one code path.
func LoadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("runner: load manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("runner: load manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("runner: manifest %s has version %d, want %d", path, m.Version, manifestVersion)
	}
	return m, nil
}

// Save writes the manifest atomically.
func (m Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: save manifest: %w", err)
	}
	return WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// Upsert replaces the record for rec.Experiment or appends it.
func (m *Manifest) Upsert(rec Record) {
	for i, r := range m.Records {
		if r.Experiment == rec.Experiment {
			m.Records[i] = rec
			return
		}
	}
	m.Records = append(m.Records, rec)
}

// completedRecord reports whether a record represents a completed cell
// whose artifacts are all intact on disk.
func completedRecord(rec Record, outDir string) bool {
	if rec.Status != StatusOK {
		return false
	}
	for _, a := range rec.Artifacts {
		info, err := os.Stat(filepath.Join(outDir, a.Name))
		if err != nil || info.Size() != int64(a.Bytes) {
			return false
		}
	}
	return true
}
