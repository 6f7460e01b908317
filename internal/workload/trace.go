package workload

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace record/replay. The format is a gzip stream of length-prefixed
// records:
//
//	magic   [8]byte  "FBTRACE1"
//	record  := tsNanos uint64 | frameLen uint16 | frame [frameLen]byte
//
// It stands in for pcap in this offline environment; converting to/from
// pcap would be a trivial header change.

var traceMagic = [8]byte{'F', 'B', 'T', 'R', 'A', 'C', 'E', '1'}

// ErrBadTrace is returned for malformed trace streams.
var ErrBadTrace = errors.New("workload: malformed trace")

// TraceRecord is one captured packet.
type TraceRecord struct {
	// TimestampNanos is the packet's offset from trace start.
	TimestampNanos uint64
	// Frame is the full Ethernet frame.
	Frame []byte
}

// TraceWriter streams records to an underlying writer.
type TraceWriter struct {
	gz  *gzip.Writer
	bw  *bufio.Writer
	err error
}

// NewTraceWriter writes a trace header to w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	gz := gzip.NewWriter(w)
	bw := bufio.NewWriter(gz)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("workload: writing trace header: %w", err)
	}
	return &TraceWriter{gz: gz, bw: bw}, nil
}

// Write appends one record.
func (tw *TraceWriter) Write(rec TraceRecord) error {
	if tw.err != nil {
		return tw.err
	}
	if len(rec.Frame) > 0xffff {
		return fmt.Errorf("%w: frame of %d bytes", ErrBadTrace, len(rec.Frame))
	}
	var hdr [10]byte
	binary.BigEndian.PutUint64(hdr[0:8], rec.TimestampNanos)
	binary.BigEndian.PutUint16(hdr[8:10], uint16(len(rec.Frame)))
	if _, err := tw.bw.Write(hdr[:]); err != nil {
		tw.err = err
		return err
	}
	if _, err := tw.bw.Write(rec.Frame); err != nil {
		tw.err = err
		return err
	}
	return nil
}

// Close flushes and closes the compressed stream (not the underlying
// writer).
func (tw *TraceWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.bw.Flush(); err != nil {
		return err
	}
	return tw.gz.Close()
}

// TraceReader streams records from a trace.
type TraceReader struct {
	gz *gzip.Reader
	br *bufio.Reader
	n  uint64
}

// NewTraceReader validates the header of r.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	br := bufio.NewReader(gz)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	return &TraceReader{gz: gz, br: br}, nil
}

// Next returns the next record, or io.EOF at end of trace.
func (tr *TraceReader) Next() (TraceRecord, error) {
	var hdr [10]byte
	if _, err := io.ReadFull(tr.br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return TraceRecord{}, io.EOF
		}
		return TraceRecord{}, fmt.Errorf("%w: truncated record header", ErrBadTrace)
	}
	ts := binary.BigEndian.Uint64(hdr[0:8])
	n := binary.BigEndian.Uint16(hdr[8:10])
	frame := make([]byte, n)
	if _, err := io.ReadFull(tr.br, frame); err != nil {
		return TraceRecord{}, fmt.Errorf("%w: truncated frame", ErrBadTrace)
	}
	tr.n++
	return TraceRecord{TimestampNanos: ts, Frame: frame}, nil
}

// Count returns the number of records read so far.
func (tr *TraceReader) Count() uint64 { return tr.n }

// Close closes the decompressor.
func (tr *TraceReader) Close() error { return tr.gz.Close() }

// Record captures n packets from a generator at the given rate into w,
// timestamped by the arrival process.
func Record(w io.Writer, gen *Generator, arrival Arrival, pps float64, n int) error {
	if pps <= 0 || n < 0 {
		return fmt.Errorf("workload: invalid record params pps=%v n=%d", pps, n)
	}
	tw, err := NewTraceWriter(w)
	if err != nil {
		return err
	}
	rng := gen.ArrivalRNG()
	var ts float64
	for i := 0; i < n; i++ {
		p, err := gen.Next()
		if err != nil {
			return err
		}
		ts += arrival.NextGap(rng, pps)
		if err := tw.Write(TraceRecord{TimestampNanos: uint64(ts * 1e9), Frame: p.Frame}); err != nil {
			return err
		}
	}
	return tw.Close()
}
