package shamir_test

import (
	"math/big"
	"math/bits"
	"strings"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/shamir"
)

// mustPanic runs f and demands a panic whose message contains want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: did not panic", name)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %v, want one mentioning %q", name, r, want)
		}
	}()
	f()
}

// TestViewsPanicOnForeignOrCorrupted pins that the zero-copy limb
// views keep both checks the copying decoder had: a ciphertext of
// another instance panics on the tag, and one whose sentinel limb or
// length is damaged panics on the shape — through every op that reads
// a view, in-place or not.
func TestViewsPanicOnForeignOrCorrupted(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 4, W: 1})
	other := newScheme(t, shamir.Params{K: 2, N: 4, W: 1})
	good := s.EncryptInt(3)
	foreign := other.EncryptInt(3)

	noSentinel := good.Clone()
	noSentinel.V.SetBit(noSentinel.V, 64*4, 0) // clear the sentinel limb
	extraLimb := good.Clone()
	extraLimb.V.SetBit(extraLimb.V, 64*5, 1) // an excess limb above the sentinel

	dst := s.EncryptZero()
	ops := map[string]func(c *homo.Ciphertext){
		"AddInto":       func(c *homo.Ciphertext) { s.AddInto(dst, good, c) },
		"SubInto":       func(c *homo.Ciphertext) { s.SubInto(dst, c, good) },
		"ScalarMulInto": func(c *homo.Ciphertext) { s.ScalarMulInto(dst, 3, c) },
		"Add":           func(c *homo.Ciphertext) { s.Add(c, good) },
		"Decrypt":       func(c *homo.Ciphertext) { s.Decrypt(c) },
		"DecryptInt64":  func(c *homo.Ciphertext) { s.DecryptInt64(c) },
		"Rerandomize":   func(c *homo.Ciphertext) { s.Rerandomize(c) },
	}
	for name, op := range ops {
		mustPanic(t, name+"/foreign", "different scheme instance", func() { op(foreign) })
		mustPanic(t, name+"/no sentinel", "corrupted share vector", func() { op(noSentinel) })
		mustPanic(t, name+"/extra limb", "corrupted share vector", func() { op(extraLimb) })
	}
	// A rejected operand must leave the destination untouched.
	if got := s.DecryptInt64(dst); got != 0 {
		t.Fatalf("dst decrypts to %d after rejected ops, want 0", got)
	}
}

// TestInPlaceDestinationIsStorage pins the destination side of the
// in-place contract: any caller-owned ciphertext is valid storage —
// a zero Ciphertext, or one of another instance or shape — and is
// reshaped into this instance's ciphertext.
func TestInPlaceDestinationIsStorage(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 3, N: 6, W: 1})
	other := newScheme(t, shamir.Params{K: 2, N: 4, W: 1})
	a, b := s.EncryptInt(40), s.EncryptInt(-2)
	for name, dst := range map[string]*homo.Ciphertext{
		"zero":    {},
		"foreign": other.EncryptInt(9),
		"alien":   {V: big.NewInt(12345)},
	} {
		s.AddInto(dst, a, b)
		if got := s.DecryptInt64(dst); got != 38 {
			t.Fatalf("%s: AddInto decrypts to %d, want 38", name, got)
		}
		if _, err := s.Adopt(dst); err != nil {
			t.Fatalf("%s: in-place result is not a well-formed ciphertext: %v", name, err)
		}
	}
}

// TestDecryptInt64CoversField checks the signed decoding at the edges
// of (−P/2, P/2] against DecryptSigned.
func TestDecryptInt64CoversField(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 5, W: 1})
	half := int64(shamir.P / 2)
	for _, v := range []int64{0, 1, -1, half, -half, half - 1, 1 << 40, -(1 << 40)} {
		c := s.EncryptInt(v)
		if got := s.DecryptInt64(c); got != v {
			t.Fatalf("DecryptInt64(E(%d)) = %d", v, got)
		}
		if got := s.DecryptSigned(c).Int64(); got != v {
			t.Fatalf("DecryptSigned(E(%d)) = %d", v, got)
		}
	}
}

// TestInPlaceAllocs is the exact allocation gate of the zero-copy
// representation: the in-place ops and DecryptInt64 allocate nothing,
// and a fresh Add/Sub/ScalarMul result costs exactly two allocations
// (the ciphertext+big.Int box and its limb slice).
func TestInPlaceAllocs(t *testing.T) {
	if bits.UintSize != 64 { // big.Word is uint
		t.Skip("32-bit big.Word: the ops run through the byte codec")
	}
	s := newScheme(t, shamir.Params{K: 10, N: 14, W: 1})
	a, b := s.EncryptInt(5), s.EncryptInt(7)
	dst := s.EncryptZero()
	var sink int64
	gates := []struct {
		name string
		want float64
		f    func()
	}{
		{"AddInto", 0, func() { s.AddInto(dst, a, b) }},
		{"AddInto/aliased", 0, func() { s.AddInto(dst, dst, b) }},
		{"SubInto", 0, func() { s.SubInto(dst, a, b) }},
		{"ScalarMulInto", 0, func() { s.ScalarMulInto(dst, -3, a) }},
		{"homo.AddInto", 0, func() { homo.AddInto(s, dst, a, b) }},
		{"homo.CopyInto", 0, func() { homo.CopyInto(dst, a) }},
		{"DecryptInt64", 0, func() { sink += s.DecryptInt64(a) }},
		{"homo.DecryptInt64", 0, func() { sink += homo.DecryptInt64(s, a) }},
		{"Add", 2, func() { s.Add(a, b) }},
		{"Sub", 2, func() { s.Sub(a, b) }},
		{"ScalarMul", 2, func() { s.ScalarMul(4, a) }},
	}
	for _, g := range gates {
		if got := testing.AllocsPerRun(200, g.f); got != g.want {
			t.Errorf("%s: %v allocs/op, want exactly %v", g.name, got, g.want)
		}
	}
	_ = sink
}
