package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Times are nanoseconds since the recorder's
// epoch. charged is time spent in aggregated child calls that are not
// recorded as spans of their own (scheme operations), so that the
// span's self time can exclude them.
type span struct {
	name    uint16
	parent  int32 // index of the enclosing span, -1 at the root
	start   int64
	end     int64
	charged int64
}

// opStat aggregates one kind of child call charged to its enclosing
// span instead of being recorded as a span.
type opStat struct {
	calls int64
	ns    int64
}

// recorder keeps spans in memory for one single-goroutine traced run:
// begin/end nest like the call stack, and charge attributes an
// aggregated child call to whatever span is open.
type recorder struct {
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
	stack []int32
	ops   []opStat // indexed like opNames
}

func newRecorder(ops int) *recorder {
	return &recorder{epoch: time.Now(), ids: map[string]uint16{}, ops: make([]opStat, ops)}
}

// id interns a span name.
func (r *recorder) id(name string) uint16 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := uint16(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (r *recorder) begin(name uint16) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, start: r.now()})
	r.stack = append(r.stack, idx)
	return idx
}

// end closes the span begin returned, which must be the innermost.
func (r *recorder) end(idx int32) {
	r.spans[idx].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// charge records one aggregated call of op lasting ns and charges it
// to the innermost open span, if any (the benchmark makes some calls
// while it assembles the grid, outside every span).
func (r *recorder) charge(op int, ns int64) {
	r.ops[op].calls++
	r.ops[op].ns += ns
	if n := len(r.stack); n > 0 {
		r.spans[r.stack[n-1]].charged += ns
	}
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval covered by its child spans, minus the time
// charged to it by aggregated calls. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.end - s.start - covered - s.charged
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerTotals sums call counts and self time per span name.
func (r *recorder) layerTotals() (calls map[string]int64, selfNS map[string]int64) {
	calls, selfNS = map[string]int64{}, map[string]int64{}
	for i, st := range selfTimes(r.spans) {
		name := r.names[r.spans[i].name]
		calls[name]++
		selfNS[name] += st
	}
	return calls, selfNS
}

// write dumps the spans as tab-separated lines: index, name, parent,
// start ns, end ns, charged ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\tparent\tstart_ns\tend_ns\tcharged_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, r.names[s.name], s.parent, s.start, s.end, s.charged)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
