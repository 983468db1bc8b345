package oblivious

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"secmr/internal/homo"
	"secmr/internal/paillier"
	"secmr/internal/shamir"
)

var (
	testPlain    = homo.NewPlain(96)
	testPaillier = mustPaillier()
)

func mustPaillier() *paillier.Scheme {
	s, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return s
}

func schemes() map[string]homo.Scheme {
	return map[string]homo.Scheme{"plain": testPlain, "paillier": testPaillier}
}

func TestCounterAddComponentwise(t *testing.T) {
	for name, s := range schemes() {
		a := &Counter{
			Sum: s.EncryptInt(3), Count: s.EncryptInt(10), Num: s.EncryptInt(1),
			Share:  s.EncryptInt(7),
			Stamps: []*homo.Ciphertext{s.EncryptInt(5), s.EncryptInt(0)},
		}
		b := &Counter{
			Sum: s.EncryptInt(4), Count: s.EncryptInt(20), Num: s.EncryptInt(2),
			Share:  s.EncryptInt(-6),
			Stamps: []*homo.Ciphertext{s.EncryptInt(0), s.EncryptInt(9)},
		}
		c := Add(s, a, b)
		got := []int64{
			s.DecryptSigned(c.Sum).Int64(), s.DecryptSigned(c.Count).Int64(),
			s.DecryptSigned(c.Num).Int64(), s.DecryptSigned(c.Share).Int64(),
			s.DecryptSigned(c.Stamps[0]).Int64(), s.DecryptSigned(c.Stamps[1]).Int64(),
		}
		want := []int64{7, 30, 3, 1, 5, 9}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: component %d = %d want %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestAddIntoMatchesAdd: accumulating in place gives the same
// plaintexts as Add on every backend, never touches the addend, and on
// the native in-place backend (Shamir) allocates nothing.
func TestAddIntoMatchesAdd(t *testing.T) {
	all := schemes()
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	all["shamir"] = sh
	for name, s := range all {
		mk := func(vals ...int64) *Counter {
			c := NewZero(s, len(vals)-4)
			for i, f := range c.vec() {
				homo.AddInto(s, f, f, s.EncryptInt(vals[i]))
			}
			return c
		}
		acc, b := mk(3, 10, 1, 7, 5, 0), mk(4, 20, 2, -6, 0, 9)
		b0 := b.Clone()
		want := Add(s, acc, b)
		AddInto(s, acc, b)
		for i, f := range acc.vec() {
			if got, w := homo.DecryptInt64(s, f), homo.DecryptInt64(s, want.vec()[i]); got != w {
				t.Errorf("%s: component %d = %d want %d", name, i, got, w)
			}
			if !b.vec()[i].Equal(b0.vec()[i]) {
				t.Errorf("%s: addend component %d mutated", name, i)
			}
		}
	}
	acc, b := NewZero(sh, 3), NewZero(sh, 3)
	if n := testing.AllocsPerRun(100, func() { AddInto(sh, acc, b) }); n != 0 {
		t.Fatalf("shamir AddInto: %v allocs/op, want 0", n)
	}
}

func TestCounterAddSlotMismatchPanics(t *testing.T) {
	s := testPlain
	a, b := NewZero(s, 2), NewZero(s, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(s, a, b)
}

func TestNewZeroDecryptsToZero(t *testing.T) {
	for name, s := range schemes() {
		z := NewZero(s, 3)
		for _, ct := range append([]*homo.Ciphertext{z.Sum, z.Count, z.Num, z.Share}, z.Stamps...) {
			if s.Decrypt(ct).Sign() != 0 {
				t.Errorf("%s: NewZero component nonzero", name)
			}
		}
	}
}

func TestRerandomizeConceals(t *testing.T) {
	s := testPaillier
	c := &Counter{Sum: s.EncryptInt(1), Count: s.EncryptInt(2), Num: s.EncryptInt(3),
		Share: s.EncryptInt(4), Stamps: []*homo.Ciphertext{s.EncryptInt(5)}}
	r := Rerandomize(s, c)
	if c.Sum.Equal(r.Sum) || c.Share.Equal(r.Share) || c.Stamps[0].Equal(r.Stamps[0]) {
		t.Fatal("rerandomized components identical to originals")
	}
	if s.Decrypt(r.Sum).Int64() != 1 || s.Decrypt(r.Stamps[0]).Int64() != 5 {
		t.Fatal("rerandomization changed plaintexts")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testPlain
	c := NewZero(s, 1)
	d := c.Clone()
	d.Sum.V.Add(d.Sum.V, big.NewInt(1))
	if s.Decrypt(c.Sum).Sign() != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestMakeSharesSumToOne(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for name, s := range schemes() {
		for _, n := range []int{1, 2, 5, 16} {
			shares := MakeShares(s, s, n, rng)
			if len(shares) != n {
				t.Fatalf("%s: got %d shares", name, len(shares))
			}
			sum := s.EncryptZero()
			for _, sh := range shares {
				sum = s.Add(sum, sh)
			}
			if got := s.DecryptSigned(sum).Int64(); got != 1 {
				t.Errorf("%s n=%d: shares sum to %d, want 1", name, n, got)
			}
			// Omitting one share must not sum to 1 (overwhelmingly).
			if n >= 2 {
				partial := s.EncryptZero()
				for _, sh := range shares[:n-1] {
					partial = s.Add(partial, sh)
				}
				if s.DecryptSigned(partial).Int64() == 1 {
					t.Errorf("%s: partial share sum equals 1; shares are degenerate", name)
				}
			}
		}
	}
}

func TestBlindPreservesSign(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for name, s := range schemes() {
		for _, v := range []int64{-100000, -7, -1, 0, 1, 42, 99999} {
			c := Blind(s, s.EncryptInt(v), 16, rng)
			got := SignOf(s, c)
			want := 0
			if v > 0 {
				want = 1
			} else if v < 0 {
				want = -1
			}
			if got != want {
				t.Errorf("%s: sign(blind(%d)) = %d want %d", name, v, got, want)
			}
		}
	}
}

func TestBlindHidesMagnitude(t *testing.T) {
	// Two blindings of the same value should decrypt differently
	// (overwhelmingly), and neither should equal the original value.
	s := testPlain
	rng := mrand.New(mrand.NewSource(3))
	c := s.EncryptInt(12345)
	a := s.DecryptSigned(Blind(s, c, 20, rng)).Int64()
	b := s.DecryptSigned(Blind(s, c, 20, rng)).Int64()
	if a == b {
		t.Fatal("two blindings decrypted identically")
	}
	if a == 12345 && b == 12345 {
		t.Fatal("blinding did not change magnitude")
	}
}

// TestBlindIntoMatchesBlind: blinding in place (dst aliasing the
// input) draws the same scalar from the same rng stream as Blind.
func TestBlindIntoMatchesBlind(t *testing.T) {
	for name, s := range schemes() {
		r1, r2 := mrand.New(mrand.NewSource(5)), mrand.New(mrand.NewSource(5))
		for _, v := range []int64{-9, 0, 31} {
			want := s.DecryptSigned(Blind(s, s.EncryptInt(v), 16, r1))
			c := s.EncryptInt(v)
			BlindInto(s, c, c, 16, r2)
			if got := s.DecryptSigned(c); got.Cmp(want) != 0 {
				t.Errorf("%s: BlindInto(%d) = %v, Blind = %v", name, v, got, want)
			}
		}
	}
}

func TestBlindValidation(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad blindBits")
		}
	}()
	Blind(testPlain, testPlain.EncryptInt(1), 0, rng)
}

func TestPackerRoundTripProperty(t *testing.T) {
	p := NewPacker(5, 16)
	f := func(a, b, c, d, e uint16) bool {
		vals := []int64{int64(a), int64(b), int64(c), int64(d), int64(e)}
		got := p.Unpack(p.Pack(vals))
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedHomomorphicAdd(t *testing.T) {
	// The vectorization property of §4.2: adding packed ciphertexts
	// adds every slot independently.
	p := NewPacker(4, 16)
	for name, s := range schemes() {
		a := p.Encrypt(s, s, []int64{1, 2, 3, 4})
		b := p.Encrypt(s, s, []int64{10, 20, 30, 40})
		sum := s.Add(a, b)
		got := p.Decrypt(s, sum)
		want := []int64{11, 22, 33, 44}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: slot %d = %d want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestPackerValidation(t *testing.T) {
	p := NewPacker(2, 8)
	mustPanic(t, func() { p.Pack([]int64{1}) })
	mustPanic(t, func() { p.Pack([]int64{1, 256}) })
	mustPanic(t, func() { p.Pack([]int64{-1, 0}) })
	mustPanic(t, func() { NewPacker(0, 8) })
	// Oversized geometry vs a small plaintext space.
	small := homo.NewPlain(16)
	big := NewPacker(4, 16)
	mustPanic(t, func() { big.Encrypt(small, small, []int64{1, 1, 1, 1}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestShareInvarianceUnderCounterSummation(t *testing.T) {
	// End-to-end share-field behaviour: three neighbours' counters,
	// each carrying its assigned share, summed once → share field
	// decrypts to 1; one counted twice → ≠ 1.
	s := testPaillier
	rng := mrand.New(mrand.NewSource(5))
	shares := MakeShares(s, s, 3, rng)
	counters := make([]*Counter, 3)
	for i := range counters {
		counters[i] = &Counter{
			Sum: s.EncryptInt(int64(i)), Count: s.EncryptInt(10), Num: s.EncryptInt(1),
			Share: shares[i], Stamps: []*homo.Ciphertext{s.EncryptZero()},
		}
	}
	total := NewZero(s, 1)
	for _, c := range counters {
		total = Add(s, total, c)
	}
	if s.DecryptSigned(total.Share).Int64() != 1 {
		t.Fatal("honest sum share != 1")
	}
	cheat := Add(s, total, counters[0]) // double count
	if s.DecryptSigned(cheat.Share).Int64() == 1 {
		t.Fatal("double count not reflected in share field")
	}
}

func BenchmarkCounterAddPaillier(b *testing.B) {
	s := testPaillier
	x, y := NewZero(s, 4), NewZero(s, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(s, x, y)
	}
}

func BenchmarkBlindSignSFE(b *testing.B) {
	s := testPaillier
	rng := mrand.New(mrand.NewSource(1))
	c := s.EncryptInt(-42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SignOf(s, Blind(s, c, 16, rng))
	}
}
