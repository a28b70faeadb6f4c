// Package trace implements HPC leakage-trace collection and dataset
// handling. A trace is the time series the paper's attacker records: for T
// sampling ticks, the per-tick counts of the monitored HPC events on the
// physical core backing the victim VM's vCPU. The host view is recorded
// once as the core's raw signal rows (Record) and projected onto the
// monitored events (Project). Datasets bundle labelled traces for attack
// training/validation and for defense evaluation.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// Errors returned by the package.
var (
	ErrNoEvents      = errors.New("trace: projection needs at least one event")
	ErrTooManyEvents = errors.New("trace: more events than counter registers")
	ErrEmptyTrace    = errors.New("trace: empty trace")
)

// Trace is one labelled leakage recording: Data[t][e] is the count of
// event e during tick t.
type Trace struct {
	Label string
	Data  [][]float64
}

// Ticks returns the trace length T.
func (tr Trace) Ticks() int { return len(tr.Data) }

// Events returns the channel count E.
func (tr Trace) Events() int {
	if len(tr.Data) == 0 {
		return 0
	}
	return len(tr.Data[0])
}

// Flatten returns the trace as one feature vector, channel-major
// ([e0t0, e0t1, ..., e1t0, ...]), the layout the attack models consume.
func (tr Trace) Flatten() []float64 {
	t, e := tr.Ticks(), tr.Events()
	out := make([]float64, 0, t*e)
	for ch := 0; ch < e; ch++ {
		for tick := 0; tick < t; tick++ {
			out = append(out, tr.Data[tick][ch])
		}
	}
	return out
}

// Channel extracts one event's time series.
func (tr Trace) Channel(e int) []float64 {
	out := make([]float64, tr.Ticks())
	for t := range tr.Data {
		out[t] = tr.Data[t][e]
	}
	return out
}

// Clone deep-copies the trace.
func (tr Trace) Clone() Trace {
	data := make([][]float64, len(tr.Data))
	for i, row := range tr.Data {
		data[i] = append([]float64(nil), row...)
	}
	return Trace{Label: tr.Label, Data: data}
}

// Record steps the world ticks times and returns the core's raw per-tick
// signal deltas, in microarch signal index order: the host's view of
// the core before it picks any event. Every catalog event is a formula
// over these signals, so one recording serves any set of events (see
// Project). All rows are carved from one slab.
func Record(w *sev.World, core *microarch.Core, ticks int) [][]float64 {
	if ticks < 0 {
		ticks = 0
	}
	n := microarch.NumSignals
	out := make([][]float64, ticks)
	slab := make([]float64, ticks*n)
	prev := core.Counters()
	for i := 0; i < ticks; i++ {
		w.Step()
		now := core.Counters()
		row := slab[i*n : (i+1)*n : (i+1)*n]
		now.Sub(prev).VectorInto(row)
		out[i] = row
		prev = now
	}
	return out
}

// Project derives from a recording the trace the host's monitoring loop
// reads when it programs events into the PMU's registers and, each tick,
// reads (RDPMC) and resets every register: Data[t][i] is event i's count
// over raw tick t with the PMU's read noise drawn from noise (nil for
// exact reads). The reset after every read zeroes the register's drift,
// so each read carries drift 0 + jitter/10; drawing from noise in (tick,
// register) order therefore gives that loop's trace bit for bit. At most
// hpc.NumCounterRegisters events fit.
func Project(raw [][]float64, events []*hpc.Event, noise *rng.Source, label string) (Trace, error) {
	if len(events) == 0 {
		return Trace{}, ErrNoEvents
	}
	if len(events) > hpc.NumCounterRegisters {
		return Trace{}, fmt.Errorf("%w: %d > %d", ErrTooManyEvents, len(events), hpc.NumCounterRegisters)
	}
	e := len(events)
	data := make([][]float64, len(raw))
	slab := make([]float64, len(raw)*e)
	for t, signals := range raw {
		row := slab[t*e : (t+1)*e : (t+1)*e]
		for i, ev := range events {
			row[i], _ = ev.Measure(ev.Value(signals), 0, noise)
		}
		data[t] = row
	}
	return Trace{Label: label, Data: data}, nil
}

// Dataset is a labelled trace collection.
type Dataset struct {
	Traces     []Trace
	EventNames []string
}

// Add appends a trace.
func (d *Dataset) Add(tr Trace) { d.Traces = append(d.Traces, tr) }

// Len returns the trace count.
func (d *Dataset) Len() int { return len(d.Traces) }

// Classes returns the sorted distinct labels.
func (d *Dataset) Classes() []string {
	set := map[string]bool{}
	for _, tr := range d.Traces {
		set[tr.Label] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Split partitions the dataset into train/validation subsets with the given
// training fraction, shuffling with r. The split is stratified per class so
// every label appears in both subsets.
func (d *Dataset) Split(trainFrac float64, r *rng.Source) (train, val *Dataset) {
	train = &Dataset{EventNames: d.EventNames}
	val = &Dataset{EventNames: d.EventNames}
	byClass := map[string][]int{}
	for i, tr := range d.Traces {
		byClass[tr.Label] = append(byClass[tr.Label], i)
	}
	labels := make([]string, 0, len(byClass))
	for l := range byClass {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		idx := byClass[l]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTrain := int(math.Round(trainFrac * float64(len(idx))))
		if nTrain < 1 && len(idx) > 1 {
			nTrain = 1
		}
		if nTrain >= len(idx) && len(idx) > 1 {
			nTrain = len(idx) - 1
		}
		for i, id := range idx {
			if i < nTrain {
				train.Add(d.Traces[id])
			} else {
				val.Add(d.Traces[id])
			}
		}
	}
	return train, val
}

// Normalizer holds per-channel affine scaling fitted on training data so
// the same transform applies to held-out traces.
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// FitNormalizer computes per-channel mean/std over every tick of every
// trace in the dataset.
func FitNormalizer(d *Dataset) (*Normalizer, error) {
	if d.Len() == 0 || d.Traces[0].Events() == 0 {
		return nil, ErrEmptyTrace
	}
	e := d.Traces[0].Events()
	n := &Normalizer{Mean: make([]float64, e), Std: make([]float64, e)}
	var count float64
	for _, tr := range d.Traces {
		for _, row := range tr.Data {
			for ch, v := range row {
				n.Mean[ch] += v
			}
			count++
		}
	}
	if count == 0 {
		return nil, ErrEmptyTrace
	}
	for ch := range n.Mean {
		n.Mean[ch] /= count
	}
	for _, tr := range d.Traces {
		for _, row := range tr.Data {
			for ch, v := range row {
				dlt := v - n.Mean[ch]
				n.Std[ch] += dlt * dlt
			}
		}
	}
	for ch := range n.Std {
		n.Std[ch] = math.Sqrt(n.Std[ch] / count)
		if n.Std[ch] == 0 {
			n.Std[ch] = 1
		}
	}
	return n, nil
}

// Apply normalises a trace in place.
func (n *Normalizer) Apply(tr *Trace) {
	for t := range tr.Data {
		for ch := range tr.Data[t] {
			if ch < len(n.Mean) {
				tr.Data[t][ch] = (tr.Data[t][ch] - n.Mean[ch]) / n.Std[ch]
			}
		}
	}
}

// LabelIndex maps class names to dense indices for classifiers.
type LabelIndex struct {
	names []string
	index map[string]int
}

// NewLabelIndex builds an index over the sorted distinct labels.
func NewLabelIndex(labels []string) *LabelIndex {
	set := map[string]bool{}
	for _, l := range labels {
		set[l] = true
	}
	names := make([]string, 0, len(set))
	for l := range set {
		names = append(names, l)
	}
	sort.Strings(names)
	idx := &LabelIndex{names: names, index: make(map[string]int, len(names))}
	for i, n := range names {
		idx.index[n] = i
	}
	return idx
}

// Len returns the class count.
func (li *LabelIndex) Len() int { return len(li.names) }

// Index returns the dense index of a label (-1 if unknown).
func (li *LabelIndex) Index(label string) int {
	if i, ok := li.index[label]; ok {
		return i
	}
	return -1
}

// Name returns the label at a dense index.
func (li *LabelIndex) Name(i int) string {
	if i < 0 || i >= len(li.names) {
		return ""
	}
	return li.names[i]
}
