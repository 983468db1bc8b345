package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100, charged: 5},
		{name: 1, parent: 0, start: 10, end: 30},
		{name: 1, parent: 0, start: 20, end: 50},  // overlaps the previous child
		{name: 1, parent: 0, start: 90, end: 120}, // runs past its parent
		{name: 2, parent: 1, start: 12, end: 28, charged: 4},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100]: 50 of the parent's 100, and
	// 5 more were charged by aggregated calls.
	if self[0] != 45 {
		t.Errorf("parent self = %d, want 45", self[0])
	}
	// The grandchild counts against its own parent only.
	if self[1] != 4 {
		t.Errorf("child self = %d, want 20-16 = 4", self[1])
	}
	if self[4] != 12 {
		t.Errorf("grandchild self = %d, want 16-4 = 12", self[4])
	}
	if self[3] != 30 {
		t.Errorf("overhanging child self = %d, want its own 30", self[3])
	}
}

func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 1000, charged: 100},
		{parent: 0, start: 100, end: 400, charged: 50},
		{parent: 0, start: 500, end: 900},
		{parent: 2, start: 600, end: 700},
	}
	var total int64
	for _, s := range selfTimes(spans) {
		total += s
	}
	// Charged time is outside every span's self time.
	if want := int64(1000 - 100 - 50); total != want {
		t.Errorf("self times sum to %d, want %d", total, want)
	}
}

func TestRecorderChargesTheInnermostSpan(t *testing.T) {
	r := newRecorder(numOps)
	outer, inner := r.id("outer"), r.id("inner")
	a := r.begin(outer)
	b := r.begin(inner)
	r.charge(opAdd, 7)
	r.end(b)
	r.charge(opSub, 3)
	r.end(a)
	r.charge(opAdd, 2) // nothing open
	if r.spans[b].charged != 7 || r.spans[a].charged != 3 {
		t.Errorf("charged inner=%d outer=%d, want 7, 3", r.spans[b].charged, r.spans[a].charged)
	}
	if r.spans[b].parent != a || r.spans[a].parent != -1 {
		t.Errorf("parents: inner→%d outer→%d", r.spans[b].parent, r.spans[a].parent)
	}
	if r.ops[opAdd].calls != 2 || r.ops[opAdd].ns != 9 {
		t.Errorf("add aggregate = %+v", r.ops[opAdd])
	}
}
