// Package oblivious implements the paper's oblivious counters (§4.2,
// §5.2): encrypted counters that anyone can add and rerandomize
// without keys, extended with the two anti-malicious fields —
//
//   - a share field: the values the accountant of a resource assigns
//     to its neighbours (and to itself) sum to 1 modulo the plaintext
//     space, so the sum of a full neighbourhood of counters carries
//     E(1) in this field if and only if every neighbour was counted
//     exactly once;
//   - a timestamp vector: one Lamport-clock slot per message source,
//     so the controller can detect replayed (stale) counters.
//
// A Counter bundles the three protocol values (sum, count, num) with
// one share field and one stamp vector; componentwise addition
// preserves all invariants. The package also provides the paper's
// vectorization technique (packing several small fields into a single
// ciphertext, §4.2) and the blinded-sign secure function evaluation
// primitive used between broker and controller (§5.1).
package oblivious

import (
	"math/big"
	"math/rand"

	"secmr/internal/homo"
)

// Counter is one oblivious counter message: the §5.2 payload
// ⟨sum, count, num, share, T_⊥, T_v1, …, T_vd⟩ with each field an
// independently homomorphic ciphertext. (The single-ciphertext packed
// form is provided by Packer; the multi-ciphertext form is the default
// because it lets the controller decrypt verification fields without
// learning the counter values.)
type Counter struct {
	Sum, Count, Num *homo.Ciphertext
	Share           *homo.Ciphertext
	Stamps          []*homo.Ciphertext
}

// vec flattens the counter into the fixed field order
// (sum, count, num, share, stamps…) for the homo batch helpers.
func (c *Counter) vec() []*homo.Ciphertext {
	v := make([]*homo.Ciphertext, 0, 4+len(c.Stamps))
	v = append(v, c.Sum, c.Count, c.Num, c.Share)
	return append(v, c.Stamps...)
}

// fromVec rebuilds a counter from vec's layout. The slice is owned by
// the result afterwards.
func fromVec(v []*homo.Ciphertext) *Counter {
	return &Counter{Sum: v[0], Count: v[1], Num: v[2], Share: v[3], Stamps: v[4:]}
}

// NewZero returns an all-E(0) counter with the given number of stamp
// slots. All counter operations go through the homo batch helpers: a
// batch-capable scheme (Paillier, ElGamal) computes the 4+slots field
// ciphertexts on the shared worker pool; any other scheme runs the
// identical serial loop.
func NewZero(pub homo.Public, slots int) *Counter {
	return fromVec(homo.EncryptZeroVec(pub, 4+slots))
}

// Add returns the componentwise homomorphic sum. Both operands must
// have the same number of stamp slots.
func Add(pub homo.Public, a, b *Counter) *Counter {
	if len(a.Stamps) != len(b.Stamps) {
		panic("oblivious: stamp slot mismatch")
	}
	return fromVec(homo.AddVec(pub, a.vec(), b.vec()))
}

// AddInto accumulates b into acc componentwise in place: acc = acc+b.
// Every field ciphertext of acc, stamps included, must be owned
// exclusively by the caller — homo's in-place contract — because they
// are overwritten through homo.AddInto: a scheme with the
// in-place capability (Shamir) writes the sums straight into acc's
// storage and allocates nothing; any other scheme stores fresh sums
// into acc's ciphertext structs. b is never mutated.
func AddInto(pub homo.Public, acc, b *Counter) {
	if len(acc.Stamps) != len(b.Stamps) {
		panic("oblivious: stamp slot mismatch")
	}
	homo.AddInto(pub, acc.Sum, acc.Sum, b.Sum)
	homo.AddInto(pub, acc.Count, acc.Count, b.Count)
	homo.AddInto(pub, acc.Num, acc.Num, b.Num)
	homo.AddInto(pub, acc.Share, acc.Share, b.Share)
	for i := range acc.Stamps {
		homo.AddInto(pub, acc.Stamps[i], acc.Stamps[i], b.Stamps[i])
	}
}

// Rerandomize refreshes every component so the recipient cannot tell
// whether the counter changed (§5.2: "further rerandomized to conceal
// from the receiver the fact that the counter was not changed").
func Rerandomize(pub homo.Public, c *Counter) *Counter {
	return fromVec(homo.RerandomizeVec(pub, c.vec()))
}

// Clone deep-copies the counter.
func (c *Counter) Clone() *Counter {
	out := &Counter{
		Sum:    c.Sum.Clone(),
		Count:  c.Count.Clone(),
		Num:    c.Num.Clone(),
		Share:  c.Share.Clone(),
		Stamps: make([]*homo.Ciphertext, len(c.Stamps)),
	}
	for i := range c.Stamps {
		out.Stamps[i] = c.Stamps[i].Clone()
	}
	return out
}

// MakeShares draws n random shares summing to 1 modulo the plaintext
// space and returns their encryptions — the accountant's share
// distribution step (Algorithm 2). The shares themselves are drawn
// from the full plaintext space, so any proper subset reveals nothing
// about whether the subset "should" sum to anything.
func MakeShares(enc homo.Encryptor, pub homo.Public, n int, rng *rand.Rand) []*homo.Ciphertext {
	if n < 1 {
		panic("oblivious: need at least one share")
	}
	// Draw n−1 shares from a wide range; the last share is
	// 1 − Σ others (mod M). Drawing int63 keeps the arithmetic in
	// int64; the modular encoding happens inside Encrypt. All draws
	// happen before the batched encryption so the rng stream is
	// identical to the historical serial loop (seeded simulations
	// depend on the draw order).
	vals := make([]*big.Int, n)
	acc := int64(0)
	for i := 0; i < n-1; i++ {
		v := rng.Int63n(1 << 40)
		acc += v
		vals[i] = big.NewInt(v)
	}
	vals[n-1] = big.NewInt(1 - acc)
	return homo.EncryptVec(enc, vals)
}

// Blind multiplies an encrypted signed value by a fresh random
// positive scalar, hiding its magnitude but preserving its sign — the
// cheap ad-hoc sign-evaluation SFE of §5.1 (in place of a generic [9]
// circuit or the [12] oblivious-counter protocol): the broker blinds,
// the controller decrypts and reveals only the sign. blindBits
// controls the blinding range [1, 2^blindBits].
func Blind(pub homo.Public, c *homo.Ciphertext, blindBits int, rng *rand.Rand) *homo.Ciphertext {
	return pub.ScalarMul(blindFactor(blindBits, rng), c)
}

// BlindInto is Blind writing into dst, which must be exclusively owned
// by the caller and may alias c (homo's in-place contract). It draws
// from rng exactly as Blind does.
func BlindInto(pub homo.Public, dst, c *homo.Ciphertext, blindBits int, rng *rand.Rand) {
	homo.ScalarMulInto(pub, dst, blindFactor(blindBits, rng), c)
}

// blindFactor draws the blinding scalar from [1, 2^blindBits].
func blindFactor(blindBits int, rng *rand.Rand) int64 {
	if blindBits < 1 || blindBits > 40 {
		panic("oblivious: blindBits out of range")
	}
	return rng.Int63n(1<<blindBits) + 1
}

// SignOf decrypts a (blinded) value and returns its sign: −1, 0, +1.
func SignOf(dec homo.Decryptor, c *homo.Ciphertext) int {
	return dec.DecryptSigned(c).Sign()
}
