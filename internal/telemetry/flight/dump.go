package flight

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaV1 is the versioned identifier written in the header line of
// every JSONL dump. Consumers must check it before parsing records.
const SchemaV1 = "aegis-flight/v1"

// DumpOptions filters a JSONL dump. The zero value dumps the whole ring.
type DumpOptions struct {
	// Window keeps only the newest N records (after the other filters);
	// <= 0 keeps everything retained.
	Window int
	// Kinds keeps only the listed kinds; empty keeps all.
	Kinds []Kind
	// Since keeps only records with Seq > Since, which is how the
	// aegisctl tail client polls for records it has not yet seen.
	Since uint64
	// Label is echoed in the header, e.g. an experiment name.
	Label string
}

// header is the first JSONL line of a dump.
type header struct {
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
	// Capacity is the ring size; Dropped counts records lost to ring
	// wrap before this dump (total written minus retained).
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped"`
	// Records is the number of record lines that follow; SeqFirst and
	// SeqLast bound their sequence numbers (0/0 when empty).
	Records  int    `json:"records"`
	SeqFirst uint64 `json:"seq_first"`
	SeqLast  uint64 `json:"seq_last"`
	// Incidents is the lifetime incident count of the recorder.
	Incidents uint64 `json:"incidents"`
}

// wireRecord is the JSONL shape of one record. Field order is the wire
// order; the golden test pins it.
type wireRecord struct {
	Seq      uint64  `json:"seq"`
	Tick     int64   `json:"tick,omitempty"`
	Kind     string  `json:"kind"`
	Code     string  `json:"code"`
	Sub      string  `json:"sub,omitempty"`
	Incident bool    `json:"incident,omitempty"`
	A        float64 `json:"a,omitempty"`
	B        float64 `json:"b,omitempty"`
	C        float64 `json:"c,omitempty"`
}

// WriteJSONL dumps the retained records oldest-first as "aegis-flight/v1"
// JSONL: one header line, then one line per record, in seq order. Two
// dumps of the same ring produce byte-identical output.
func (r *Recorder) WriteJSONL(w io.Writer, opts DumpOptions) error {
	recs := r.Snapshot()
	total := r.Total()

	filtered := recs[:0:0]
	for _, rec := range recs {
		if rec.Seq <= opts.Since {
			continue
		}
		if len(opts.Kinds) > 0 && !containsKind(opts.Kinds, rec.Kind) {
			continue
		}
		filtered = append(filtered, rec)
	}
	if opts.Window > 0 && len(filtered) > opts.Window {
		filtered = filtered[len(filtered)-opts.Window:]
	}

	h := header{
		Schema:    SchemaV1,
		Label:     opts.Label,
		Capacity:  r.Capacity(),
		Dropped:   total - uint64(len(recs)),
		Records:   len(filtered),
		Incidents: r.Incidents(),
	}
	if len(filtered) > 0 {
		h.SeqFirst = filtered[0].Seq
		h.SeqLast = filtered[len(filtered)-1].Seq
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("flight: encode header: %w", err)
	}
	for _, rec := range filtered {
		wr := wireRecord{
			Seq:      rec.Seq,
			Tick:     rec.Tick,
			Kind:     rec.Kind.String(),
			Code:     rec.Code.String(),
			Incident: rec.Incident,
			A:        rec.A,
			B:        rec.B,
			C:        rec.C,
		}
		if rec.Sub != CodeNone {
			wr.Sub = rec.Sub.String()
		}
		if err := enc.Encode(wr); err != nil {
			return fmt.Errorf("flight: encode record %d: %w", rec.Seq, err)
		}
	}
	return nil
}

func containsKind(ks []Kind, k Kind) bool {
	for _, c := range ks {
		if c == k {
			return true
		}
	}
	return false
}
