package homo_test

// Contract tests of the in-place capability on every backend: Shamir
// implements it natively, Paillier, ElGamal and Plain reach it through
// the package helpers' allocating fallback. Either way an in-place
// result must decrypt to exactly what the allocating op returns, with
// dst fresh storage or aliasing an operand, and operands that are not
// dst must come out bit-identical.

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/shamir"
)

// inPlaceSchemes is allSchemes plus the native implementer.
func inPlaceSchemes(t *testing.T) []testScheme {
	t.Helper()
	sh := shamir.MustNew(shamir.Params{K: 3, N: 7, W: 1})
	return append([]testScheme{{"shamir", sh, 1 << 30, true}}, allSchemes(t)...)
}

func TestInPlaceCapabilityPresence(t *testing.T) {
	for _, ts := range inPlaceSchemes(t) {
		_, ip := ts.scheme.(homo.InPlace)
		_, di := ts.scheme.(homo.Int64Decryptor)
		native := ts.name == "shamir"
		if ip != native || di != native {
			t.Errorf("%s: InPlace %v, Int64Decryptor %v, want both %v", ts.name, ip, di, native)
		}
	}
}

func TestInPlaceMatchesAllocating(t *testing.T) {
	type op struct {
		name  string
		alloc func(pub homo.Public, a, b *homo.Ciphertext) *homo.Ciphertext
		into  func(pub homo.Public, dst, a, b *homo.Ciphertext)
	}
	ops := []op{
		{"add", func(p homo.Public, a, b *homo.Ciphertext) *homo.Ciphertext { return p.Add(a, b) },
			homo.AddInto},
		{"sub", func(p homo.Public, a, b *homo.Ciphertext) *homo.Ciphertext { return p.Sub(a, b) },
			homo.SubInto},
		{"scalar_mul", func(p homo.Public, a, _ *homo.Ciphertext) *homo.Ciphertext { return p.ScalarMul(-7, a) },
			func(p homo.Public, dst, a, _ *homo.Ciphertext) { homo.ScalarMulInto(p, dst, -7, a) }},
	}
	for _, ts := range inPlaceSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(23))
			bound := ts.bound / 16
			for trial := 0; trial < 4; trial++ {
				ms := randVec(rng, 2, bound)
				for _, o := range ops {
					a0, b0 := ts.scheme.Encrypt(ms[0]), ts.scheme.Encrypt(ms[1])
					want := ts.scheme.DecryptSigned(o.alloc(ts.scheme, a0, b0))
					for _, dname := range []string{"fresh", "reused", "aliases a", "aliases b"} {
						a, b := a0.Clone(), b0.Clone()
						dst := &homo.Ciphertext{}
						switch dname {
						case "reused":
							dst = ts.scheme.EncryptInt(99)
						case "aliases a":
							dst = a
						case "aliases b":
							dst = b
						}
						o.into(ts.scheme, dst, a, b)
						if got := ts.scheme.DecryptSigned(dst); got.Cmp(want) != 0 {
							t.Fatalf("%s/%s: in place %v, allocating %v", o.name, dname, got, want)
						}
						if got := homo.DecryptInt64(ts.scheme, dst); got != want.Int64() {
							t.Fatalf("%s/%s: DecryptInt64 %d, want %v", o.name, dname, got, want)
						}
						if dst != a && !a.Equal(a0) {
							t.Fatalf("%s/%s: operand a mutated", o.name, dname)
						}
						if dst != b && !b.Equal(b0) {
							t.Fatalf("%s/%s: operand b mutated", o.name, dname)
						}
					}
				}
			}
		})
	}
}

// TestCopyIntoOwnsItsCopy: CopyInto yields a bit-identical ciphertext
// that shares no storage with its source, on every backend, reusing a
// destination's storage across copies.
func TestCopyIntoOwnsItsCopy(t *testing.T) {
	for _, ts := range inPlaceSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			dst := &homo.Ciphertext{}
			for _, m := range []int64{5, -3, 0} {
				src := ts.scheme.EncryptInt(m)
				orig := src.Clone()
				homo.CopyInto(dst, src)
				if !dst.Equal(src) {
					t.Fatalf("copy of E(%d) differs from its source", m)
				}
				homo.AddInto(ts.scheme, dst, dst, ts.scheme.EncryptInt(1))
				if !src.Equal(orig) {
					t.Fatalf("accumulating into the copy of E(%d) mutated the source", m)
				}
				if got := homo.DecryptInt64(ts.scheme, dst); got != m+1 {
					t.Fatalf("copy of E(%d) + E(1) decrypts to %d", m, got)
				}
			}
		})
	}
}

func TestDecryptInt64MatchesDecryptSigned(t *testing.T) {
	for _, ts := range inPlaceSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(29))
			for _, m := range append(randVec(rng, 8, ts.bound), big.NewInt(0), big.NewInt(-1)) {
				c := ts.scheme.Encrypt(m)
				if got := homo.DecryptInt64(ts.scheme, c); got != m.Int64() {
					t.Fatalf("DecryptInt64(E(%v)) = %d", m, got)
				}
			}
		})
	}
}
