package homo

import "math/big"

// In-place capability: homomorphic arithmetic that writes its result
// into a caller-owned ciphertext instead of allocating one. A broker
// re-derives the same SFE inputs (full-neighbourhood sums, blinded Δs)
// on every evaluation and consumes them synchronously, so it can keep
// them in scratch ciphertexts it owns and overwrite them each time.
//
// Contract for every *Into operation:
//
//   - dst must be exclusively owned by the caller: no other live
//     reference to dst or to dst.V may exist, because its storage is
//     overwritten. Its prior value is irrelevant; a zero Ciphertext is
//     valid storage.
//   - dst may alias a or b (acc = acc + b is the common case).
//   - The result decrypts to exactly what the allocating op returns,
//     and the operands are never mutated (unless they alias dst).
//
// The capability is optional, like the batch capability: the
// package-level helpers accept any Public and fall back to the
// allocating op (storing its fresh result into dst) for schemes that
// do not opt in — Paillier, ElGamal and Plain, whose per-op cost is
// modular arithmetic either way. The Shamir backend implements it
// natively with zero allocations.
type InPlace interface {
	// AddInto sets dst to an encryption of a + b.
	AddInto(dst, a, b *Ciphertext)
	// SubInto sets dst to an encryption of a − b.
	SubInto(dst, a, b *Ciphertext)
	// ScalarMulInto sets dst to an encryption of m·a; m may be
	// negative.
	ScalarMulInto(dst *Ciphertext, m int64, a *Ciphertext)
}

// Int64Decryptor is the optional allocation-free decryption of values
// that fit in an int64 (the protocol's counts, shares and timestamps).
type Int64Decryptor interface {
	// DecryptInt64 returns the signed plaintext, as
	// DecryptSigned(c).Int64() would.
	DecryptInt64(c *Ciphertext) int64
}

// AddInto sets dst to pub.Add(a, b), in place when pub supports it.
func AddInto(pub Public, dst, a, b *Ciphertext) {
	if ip, ok := pub.(InPlace); ok {
		ip.AddInto(dst, a, b)
		return
	}
	*dst = *pub.Add(a, b)
}

// SubInto sets dst to pub.Sub(a, b), in place when pub supports it.
func SubInto(pub Public, dst, a, b *Ciphertext) {
	if ip, ok := pub.(InPlace); ok {
		ip.SubInto(dst, a, b)
		return
	}
	*dst = *pub.Sub(a, b)
}

// ScalarMulInto sets dst to pub.ScalarMul(m, a), in place when pub
// supports it.
func ScalarMulInto(pub Public, dst *Ciphertext, m int64, a *Ciphertext) {
	if ip, ok := pub.(InPlace); ok {
		ip.ScalarMulInto(dst, m, a)
		return
	}
	*dst = *pub.ScalarMul(m, a)
}

// CopyInto makes dst an owned copy of a, reusing dst's limbs when
// they are large enough. It needs no scheme: a copy is the same bytes
// under the same tag for every backend.
func CopyInto(dst, a *Ciphertext) {
	if dst.V == nil {
		dst.V = new(big.Int)
	}
	dst.V.Set(a.V)
	dst.Tag = a.Tag
}

// DecryptInt64 returns dec.DecryptSigned(c).Int64(), without
// allocating when dec supports it.
func DecryptInt64(dec Decryptor, c *Ciphertext) int64 {
	if d, ok := dec.(Int64Decryptor); ok {
		return d.DecryptInt64(c)
	}
	return dec.DecryptSigned(c).Int64()
}
