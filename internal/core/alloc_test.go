package core

import (
	"testing"

	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/shamir"
)

// TestFullSumZeroAllocSteadyState is the exact allocation gate of the
// broker's SFE-input path on the in-place backend: once a broker's
// scratch counter exists, re-deriving a candidate's full-neighbourhood
// sum and its Δ^u allocates nothing. It also pins that the in-place
// fold decrypts to exactly the allocating oblivious.Add chain, and
// that the fold never mutates the stored counters it reads.
func TestFullSumZeroAllocSteadyState(t *testing.T) {
	scheme := shamir.MustNew(shamir.Params{K: 3, N: 7, W: 1})
	e, resources, _ := buildSecureGrid(t, scheme, 6, 2, 1, nil, nil)
	e.Run(60)
	checked := 0
	for _, r := range resources {
		b := r.Broker
		for _, c := range b.cands {
			want := c.local
			for _, v := range b.neighbors {
				want = oblivious.Add(scheme, want, c.edges[v].inbound)
			}
			local := c.local.Clone()
			full := b.fullSum(c)
			for i, f := range []*homo.Ciphertext{full.Sum, full.Count, full.Num, full.Share} {
				w := []*homo.Ciphertext{want.Sum, want.Count, want.Num, want.Share}[i]
				if got, w := scheme.DecryptInt64(f), scheme.DecryptInt64(w); got != w {
					t.Fatalf("resource %d rule %s: field %d = %d, allocating chain %d", r.ID, c.key, i, got, w)
				}
			}
			if !c.local.Sum.Equal(local.Sum) || !c.local.Share.Equal(local.Share) {
				t.Fatalf("resource %d rule %s: fullSum mutated the ⊥ counter", r.ID, c.key)
			}
			if n := testing.AllocsPerRun(20, func() { b.fullSum(c) }); n != 0 {
				t.Fatalf("resource %d rule %s: fullSum %v allocs, want 0", r.ID, c.key, n)
			}
			if n := testing.AllocsPerRun(20, func() { b.delta(&b.du, c, full.Sum, full.Count) }); n != 0 {
				t.Fatalf("resource %d rule %s: Δ^u %v allocs, want 0", r.ID, c.key, n)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no candidates to check")
	}
}
