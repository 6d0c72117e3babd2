package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanKind names one call the drivers make into a layer. The spans are
// recorded here, around those calls; spans inside the runtime are ROADMAP
// item 5.
type spanKind uint8

const (
	spBatch spanKind = iota
	spGetCopy
	spSendImmediate
	spSendImmediateBuf
	spSend
	spAdvance
	spAdvanceUntil
	spMPISend
	spMPIRecv
	spMPIIrecv
	spMPIIsend
	spMPIWaitall
	spMPIAllreduce
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ name, layer string }{
	spBatch:            {"batch", "benchmark"},
	spGetCopy:          {"bufpool.GetCopy", "bufpool"},
	spSendImmediate:    {"core.SendImmediate", "core"},
	spSendImmediateBuf: {"core.SendImmediateBuf", "core"},
	spSend:             {"core.Send", "core"},
	spAdvance:          {"core.Advance", "core"},
	spAdvanceUntil:     {"core.AdvanceUntil", "core"},
	spMPISend:          {"mpilib.Send", "mpilib"},
	spMPIRecv:          {"mpilib.Recv", "mpilib"},
	spMPIIrecv:         {"mpilib.Irecv", "mpilib"},
	spMPIIsend:         {"mpilib.IsendMode", "mpilib"},
	spMPIWaitall:       {"mpilib.Waitall", "mpilib"},
	spMPIAllreduce:     {"mpilib.Allreduce", "mpilib"},
}

// span is one recorded call. Parent is the ID of the enclosing span of the
// same rank, -1 at the top; an ID is rank<<40 | ordinal.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op_id"`
	Self   int64  `json:"self_ns"`
}

type ringSpan struct {
	id, start, end, parent, op, self int64
	kind                             spanKind
}

type openSpan struct {
	id, start, op, children int64
	kind                    spanKind
}

// ringSpans is the span capacity of one rank; older spans are overwritten,
// the per-kind totals are not.
const ringSpans = 1 << 13

// rankTrace is the preallocated span ring of one rank goroutine. Only that
// goroutine touches it until the instance has ended.
type rankTrace struct {
	rank  int
	epoch time.Time
	ring  []ringSpan
	n     int64
	stack [4]openSpan
	depth int
	total [numSpanKinds]int64 // ns inside spans of the kind
	self  [numSpanKinds]int64 // the same less child spans
	count [numSpanKinds]int64
}

func newRankTrace(rank int) *rankTrace {
	return &rankTrace{rank: rank, epoch: time.Now(), ring: make([]ringSpan, ringSpans)}
}

// begin opens a span; on a nil trace (an untraced run) it does nothing, and
// is small enough to inline into the driver loops.
func (t *rankTrace) begin(kind spanKind, op int64) {
	if t != nil {
		t.push(kind, op)
	}
}

// end closes the innermost open span.
func (t *rankTrace) end() {
	if t != nil {
		t.pop()
	}
}

func (t *rankTrace) push(kind spanKind, op int64) {
	o := &t.stack[t.depth]
	t.depth++
	*o = openSpan{id: int64(t.rank)<<40 | (t.n + int64(t.depth)), op: op, kind: kind}
	o.start = int64(time.Since(t.epoch))
}

func (t *rankTrace) pop() {
	end := int64(time.Since(t.epoch))
	t.depth--
	o := &t.stack[t.depth]
	d := end - o.start
	parent := int64(-1)
	if t.depth > 0 {
		t.stack[t.depth-1].children += d
		parent = t.stack[t.depth-1].id
	}
	t.ring[t.n%ringSpans] = ringSpan{id: o.id, start: o.start, end: end, parent: parent, op: o.op, self: d - o.children, kind: o.kind}
	t.n++
	t.total[o.kind] += d
	t.self[o.kind] += d - o.children
	t.count[o.kind]++
}

// kept returns the spans still in the ring, oldest first.
func (t *rankTrace) kept() []ringSpan {
	if t.n <= ringSpans {
		return t.ring[:t.n]
	}
	at := t.n % ringSpans
	return append(append([]ringSpan(nil), t.ring[at:]...), t.ring[:at]...)
}

// spanP50 is the median duration, in ns, of the kept spans of the kinds.
func spanP50(traces []*rankTrace, kinds ...spanKind) float64 {
	var d []float64
	for _, t := range traces {
		for _, s := range t.kept() {
			for _, k := range kinds {
				if s.kind == k {
					d = append(d, float64(s.end-s.start))
				}
			}
		}
	}
	return median(d)
}

// spanTotal is the time, in ns, all ranks spent inside spans of the kinds.
func spanTotal(traces []*rankTrace, kinds ...spanKind) float64 {
	var ns int64
	for _, t := range traces {
		for _, k := range kinds {
			ns += t.total[k]
		}
	}
	return float64(ns)
}

// traceFile is what -trace-out holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns_by_layer"`
	Calls    map[string]int64 `json:"calls_by_span"`
	Spans    []span           `json:"spans"`
}

// writeTrace writes the kept spans of every rank, with each layer's self
// time over the whole traced window, to path.
func writeTrace(path, workload string, seed int64, traces []*rankTrace) error {
	f := traceFile{Workload: workload, Seed: seed, SelfNs: map[string]int64{}, Calls: map[string]int64{}}
	for _, t := range traces {
		for k := spanKind(0); k < numSpanKinds; k++ {
			if t.count[k] > 0 {
				f.SelfNs[spanNames[k].layer] += t.self[k]
				f.Calls[spanNames[k].name] += t.count[k]
			}
		}
		off := t.epoch.UnixNano()
		for _, s := range t.kept() {
			f.Spans = append(f.Spans, span{ID: s.id, Name: spanNames[s.kind].name, Layer: spanNames[s.kind].layer,
				Start: off + s.start, End: off + s.end, Parent: s.parent, Op: s.op, Self: s.self})
		}
	}
	sort.Slice(f.Spans, func(i, j int) bool { return f.Spans[i].Start < f.Spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
