package core

import "fmt"

// PrincipleID identifies one of the paper's seven principles.
type PrincipleID int

// The seven principles of the paper, in order of appearance.
const (
	// P1 (§3.1): Cost metrics should be context-independent.
	P1ContextIndependent PrincipleID = 1 + iota
	// P2 (§3.2): Cost metrics should be quantifiable — measurable and
	// comparable head-to-head.
	P2Quantifiable
	// P3 (§3.3): Cost metrics should cover all systems in the
	// evaluation end-to-end.
	P3EndToEnd
	// P4 (§4.1): When the proposed system and the baseline operate in
	// the same regime, the analysis can be made unidimensional.
	P4Unidimensional
	// P5 (§4.2): Scalable baseline systems should be compared at the
	// proposed system's comparison region.
	P5ScaleBaseline
	// P6 (§4.2.1): When the baseline system and the performance metric
	// are scalable, consider ideally scaling up the baseline to the
	// proposed system's comparison region.
	P6IdealScaling
	// P7 (§4.3): Non-scalable baseline systems are only comparable when
	// they are originally in the proposed system's comparison region.
	P7NonScalable
)

var principleText = map[PrincipleID]string{
	P1ContextIndependent: "Cost metrics should be context-independent.",
	P2Quantifiable:       "Cost metrics should be quantifiable—measurable and comparable head-to-head.",
	P3EndToEnd:           "Cost metrics should cover all systems in the evaluation end-to-end.",
	P4Unidimensional:     "When the proposed system and the baseline operate in the same regime, the analysis can be made unidimensional.",
	P5ScaleBaseline:      "Scalable baseline systems should be compared at the proposed system's comparison region.",
	P6IdealScaling:       "When the baseline system and the performance metric are scalable, consider ideally scaling up the baseline to the proposed system's comparison region.",
	P7NonScalable:        "Non-scalable baseline systems are only comparable when they are originally in the proposed system's comparison region.",
}

// Text returns the principle's statement as phrased in the paper.
func (p PrincipleID) Text() string {
	if t, ok := principleText[p]; ok {
		return t
	}
	return fmt.Sprintf("unknown principle %d", int(p))
}

// String returns e.g. "Principle 6".
func (p PrincipleID) String() string { return fmt.Sprintf("Principle %d", int(p)) }
