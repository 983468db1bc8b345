package shamir

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	mrand "math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"

	"secmr/internal/homo"
)

// Scheme adapts packed Shamir sharing to the homo.Scheme interface, so
// oblivious counters, the core broker/accountant/controller, the 0x9C
// wire codec and the persist snapshots all run over share vectors
// without change. A "ciphertext" is the full N-share vector of one
// value; the homomorphic operators are componentwise field arithmetic
// (Lagrange interpolation is linear), so Add/Sub/ScalarMul cost a few
// nanoseconds per share instead of a modular multiplication in Z*_{N²}.
//
// Threat model (DESIGN.md §13): unlike Paillier/ElGamal, the
// capability split is NOT cryptographic — anyone holding a share
// vector holds every share, and anyone can deal a chosen value, so
// Public/Encryptor/Decryptor coincide in power. What the scheme
// guarantees instead is information-theoretic: any K−1 shares of a
// value are jointly uniform and reveal nothing (the k-TTP property the
// protocol's k-gate enforces at the aggregation layer), and it
// guarantees it unconditionally — no hardness assumption, no key to
// steal. Deployments that need the capability split against a
// curious *broker* must keep Paillier/ElGamal; deployments whose
// adversary is a sub-k coalition of share holders get the same
// k-security three orders of magnitude cheaper. Forged counters from a
// malicious dealer are caught exactly as before: the share-sum field
// and the quarantine evidence machinery are scheme-independent.
//
// Ciphertext representation: V = 2^(64N) + Σ_i share_i·2^(64i) — one
// share per 64-bit limb, most-significant limb forced to 1 so the bit
// length (64N+1) is a pure function of the geometry: wire sizes never
// depend on share values, adoption can validate shape in O(1), and the
// canonical big-endian wire form is injective.
type Scheme struct {
	geo *Geometry
	tag uint64

	// rng supplies the aux randomness that is the entire hiding margin.
	// ChaCha8 seeded from crypto/rand: cryptographically strong draws
	// at ~ns cost, mutex-guarded because encrypt paths run concurrently
	// (batch vec ops, netgrid hosts).
	mu  sync.Mutex
	rng *mrand.ChaCha8
}

var tagCounter atomic.Uint64

// New builds a Scheme for the given geometry. The aux-randomness
// generator is seeded from crypto/rand.
func New(p Params) (*Scheme, error) {
	geo, err := NewGeometry(p)
	if err != nil {
		return nil, err
	}
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("shamir: seeding rng: %w", err)
	}
	return &Scheme{geo: geo, tag: tagCounter.Add(1), rng: mrand.NewChaCha8(seed)}, nil
}

// MustNew is New for static parameters known to be valid.
func MustNew(p Params) *Scheme {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the sharing geometry.
func (s *Scheme) Params() Params { return s.geo.Params() }

// FieldPrime returns the share-field modulus (2^61 − 1).
func (s *Scheme) FieldPrime() uint64 { return P }

// Name identifies the scheme: shamir61-2of6, with a -wW suffix when
// the packing width exceeds 1.
func (s *Scheme) Name() string {
	p := s.geo.Params()
	name := "shamir61-" + strconv.Itoa(p.K) + "of" + strconv.Itoa(p.N)
	if p.W > 1 {
		name += "-w" + strconv.Itoa(p.W)
	}
	return name
}

var pBig = new(big.Int).SetUint64(P)

// PlaintextSpace returns Z_P.
func (s *Scheme) PlaintextSpace() *big.Int { return new(big.Int).Set(pBig) }

// drawAux fills buf with uniform residues under the rng lock. One lock
// round-trip covers a whole batch when callers pre-size buf.
func (s *Scheme) drawAux(buf []uint64) {
	s.mu.Lock()
	for i := range buf {
		for {
			// 61 uniform bits; only the single value P (= 2^61−1) is
			// rejected, so the loop all but never repeats.
			if v := s.rng.Uint64() >> 3; v < P {
				buf[i] = v
				break
			}
		}
	}
	s.mu.Unlock()
}

// --- ciphertext storage -------------------------------------------------

// wordBits is the big.Word width of this platform. On 64-bit platforms
// a ciphertext's limbs below the sentinel ARE its shares, and every
// arithmetic op runs directly on those limbs (view/out); elsewhere the
// ops fall back to the byte codec (shares/setShares).
const wordBits = 32 << (^big.Word(0) >> 63)

// cipherBox co-allocates a ciphertext with its big.Int header, so a
// fresh result costs two allocations: this box and its limb slice.
type cipherBox struct {
	c homo.Ciphertext
	v big.Int
}

// fresh returns a new ciphertext of this instance holding all-zero
// shares; every caller overwrites them.
func (s *Scheme) fresh() *homo.Ciphertext {
	box := new(cipherBox)
	box.c.V = &box.v
	s.shape(&box.c)
	return &box.c
}

// shape makes dst a well-formed ciphertext of this instance (sentinel
// limb set, this instance's tag). dst is caller-owned storage whose
// prior value is irrelevant: limbs of the right shape are kept as they
// are, anything else is replaced by all-zero shares.
func (s *Scheme) shape(dst *homo.Ciphertext) {
	limbs := s.geo.p.N*64/wordBits + 1
	if dst.V == nil {
		dst.V = new(big.Int)
	}
	if ws := dst.V.Bits(); dst.Tag == s.tag && len(ws) == limbs && ws[limbs-1] == 1 {
		return
	}
	ws := make([]big.Word, limbs)
	ws[limbs-1] = 1 // sentinel: constant bit length 64N+1
	dst.V.SetBits(ws)
	dst.Tag = s.tag
}

// view returns the shares of a ciphertext produced (or adopted) by this
// instance without copying: its limbs below the sentinel (64-bit
// platforms only). The slice aliases c and is read-only to callers that
// do not own c. The tag check makes cross-scheme mix-ups panic exactly
// like the other backends; the length and sentinel check re-asserts
// Adopt's shape invariant in O(1).
func (s *Scheme) view(c *homo.Ciphertext) []big.Word {
	if c.Tag != s.tag {
		panic("shamir: ciphertext from a different scheme instance")
	}
	n := s.geo.p.N
	ws := c.V.Bits()
	if len(ws) != n+1 || ws[n] != 1 {
		panic("shamir: corrupted share vector")
	}
	return ws[:n:n]
}

// out returns the writable share limbs of a caller-owned destination
// (64-bit platforms only), shaping it first.
func (s *Scheme) out(dst *homo.Ciphertext) []big.Word {
	s.shape(dst)
	return dst.V.Bits()[:s.geo.p.N]
}

// shares decodes a copy of c's share vector through the byte codec —
// the path for platforms whose big.Word is narrower than a share.
func (s *Scheme) shares(c *homo.Ciphertext) []uint64 {
	if c.Tag != s.tag {
		panic("shamir: ciphertext from a different scheme instance")
	}
	n := s.geo.p.N
	if c.V.BitLen() != 64*n+1 {
		panic("shamir: corrupted share vector")
	}
	buf := make([]byte, 8*n+1)
	c.V.FillBytes(buf)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return out
}

// setShares stores a share vector into a caller-owned destination.
func (s *Scheme) setShares(dst *homo.Ciphertext, sh []uint64) {
	if wordBits == 64 {
		ws := s.out(dst)
		for i, v := range sh {
			ws[i] = big.Word(v)
		}
		return
	}
	buf := make([]byte, 8*len(sh)+1)
	buf[0] = 1
	for i, v := range sh {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], v)
	}
	if dst.V == nil {
		dst.V = new(big.Int)
	}
	dst.V.SetBytes(buf)
	dst.Tag = s.tag
}

// newCipher wraps a share vector (copied) as a fresh ciphertext.
func (s *Scheme) newCipher(sh []uint64) *homo.Ciphertext {
	c := s.fresh()
	s.setShares(c, sh)
	return c
}

// --- Encryptor ----------------------------------------------------------

// encryptResidue deals a fresh sharing of a reduced residue.
func (s *Scheme) encryptResidue(v uint64) *homo.Ciphertext {
	p := s.geo.p
	secrets := make([]uint64, p.W) // slot 0 carries the value; others stay 0
	secrets[0] = v
	aux := make([]uint64, p.K-1)
	s.drawAux(aux)
	return s.newCipher(s.geo.Deal(secrets, aux))
}

// Encrypt deals m (mod P) into N shares.
func (s *Scheme) Encrypt(m *big.Int) *homo.Ciphertext {
	return s.encryptResidue(homo.EncodeMod(m, pBig).Uint64())
}

// EncryptInt deals the given int64.
func (s *Scheme) EncryptInt(m int64) *homo.Ciphertext {
	return s.encryptResidue(fieldEncodeInt64(m))
}

// EncryptZero returns a fresh sharing of zero.
func (s *Scheme) EncryptZero() *homo.Ciphertext { return s.encryptResidue(0) }

// --- Decryptor ----------------------------------------------------------

// residue reconstructs the plaintext in [0, P) from the first T shares
// — a single precomputed-Lagrange dot product, straight off the limbs.
func (s *Scheme) residue(c *homo.Ciphertext) uint64 {
	if wordBits == 64 {
		return reconstructSlot(s.geo, s.view(c), 0)
	}
	return s.geo.ReconstructSlot(s.shares(c), 0)
}

// Decrypt reconstructs the plaintext in [0, P).
func (s *Scheme) Decrypt(c *homo.Ciphertext) *big.Int {
	return new(big.Int).SetUint64(s.residue(c))
}

// DecryptSigned reconstructs the plaintext decoded into (−P/2, P/2].
func (s *Scheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	return big.NewInt(s.DecryptInt64(c))
}

// DecryptInt64 is DecryptSigned without the big.Int: every residue of
// GF(2^61−1) decodes into int64, so it never truncates.
func (s *Scheme) DecryptInt64(c *homo.Ciphertext) int64 {
	v := s.residue(c)
	if v > P/2 {
		return int64(v) - int64(P)
	}
	return int64(v)
}

// --- Public (homomorphic arithmetic) ------------------------------------

// The allocating ops are a fresh ciphertext plus the in-place op; the
// in-place ops (homo.InPlace) write the componentwise result straight
// into dst's limbs, which may alias a or b.

// AddInto sets dst to the componentwise share sum — an encryption of
// the plaintext sum, by linearity of interpolation.
func (s *Scheme) AddInto(dst, a, b *homo.Ciphertext) {
	if wordBits == 64 {
		va, vb := s.view(a), s.view(b)
		AddSlices(s.out(dst), va, vb)
		return
	}
	sa, sb := s.shares(a), s.shares(b)
	AddSlices(sa, sa, sb)
	s.setShares(dst, sa)
}

// SubInto sets dst to the componentwise share difference.
func (s *Scheme) SubInto(dst, a, b *homo.Ciphertext) {
	if wordBits == 64 {
		va, vb := s.view(a), s.view(b)
		SubSlices(s.out(dst), va, vb)
		return
	}
	sa, sb := s.shares(a), s.shares(b)
	SubSlices(sa, sa, sb)
	s.setShares(dst, sa)
}

// ScalarMulInto sets dst to m·a sharewise; m may be negative.
func (s *Scheme) ScalarMulInto(dst *homo.Ciphertext, m int64, a *homo.Ciphertext) {
	if wordBits == 64 {
		va := s.view(a)
		ScaleSlice(s.out(dst), va, fieldEncodeInt64(m))
		return
	}
	sa := s.shares(a)
	ScaleSlice(sa, sa, fieldEncodeInt64(m))
	s.setShares(dst, sa)
}

// Add returns the componentwise share sum.
func (s *Scheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	c := s.fresh()
	s.AddInto(c, a, b)
	return c
}

// Sub returns the componentwise share difference.
func (s *Scheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	c := s.fresh()
	s.SubInto(c, a, b)
	return c
}

// ScalarMul returns m·x sharewise; m may be negative.
func (s *Scheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	c := s.fresh()
	s.ScalarMulInto(c, m, a)
	return c
}

// Rerandomize adds a fresh sharing of zero: the plaintext (every
// packed slot) is preserved while every share changes uniformly, so
// the recipient cannot tell whether the underlying counter moved.
func (s *Scheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	aux := make([]uint64, s.geo.p.K-1)
	s.drawAux(aux)
	c := s.newCipher(s.geo.Deal(make([]uint64, s.geo.p.W), aux))
	s.AddInto(c, c, a)
	return c
}

// --- batch capability ---------------------------------------------------

// The batch interfaces are implemented with plain loops, NOT the homo
// worker pool: a share add costs a few nanoseconds, three orders of
// magnitude below the pool's dispatch overhead, so the serial loop IS
// the fast path (the same lesson the small-vector cutoff encodes for
// the big-integer schemes). Randomness for encrypt-class batches is
// drawn in one locked pass per call.

// AddVec returns the elementwise homomorphic sum.
func (s *Scheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	if len(a) != len(b) {
		panic("shamir: AddVec length mismatch")
	}
	out := make([]*homo.Ciphertext, len(a))
	for i := range a {
		out[i] = s.Add(a[i], b[i])
	}
	return out
}

// ScalarVec returns elementwise ms[i] ∗ xs[i].
func (s *Scheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	if len(ms) != len(xs) {
		panic("shamir: ScalarVec length mismatch")
	}
	out := make([]*homo.Ciphertext, len(xs))
	for i := range xs {
		out[i] = s.ScalarMul(ms[i], xs[i])
	}
	return out
}

// RerandomizeVec refreshes every ciphertext, drawing the whole batch's
// aux randomness under one lock round-trip.
func (s *Scheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	p := s.geo.p
	aux := make([]uint64, len(xs)*(p.K-1))
	s.drawAux(aux)
	zero := make([]uint64, p.W)
	z := make([]uint64, p.N)
	out := make([]*homo.Ciphertext, len(xs))
	for i, x := range xs {
		s.geo.DealInto(z, zero, aux[i*(p.K-1):(i+1)*(p.K-1)])
		out[i] = s.newCipher(z)
		s.AddInto(out[i], out[i], x)
	}
	return out
}

// EncryptVec deals every plaintext with one batched randomness draw.
func (s *Scheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	p := s.geo.p
	aux := make([]uint64, len(ms)*(p.K-1))
	s.drawAux(aux)
	secrets := make([]uint64, p.W)
	sh := make([]uint64, p.N)
	out := make([]*homo.Ciphertext, len(ms))
	for i, m := range ms {
		secrets[0] = homo.EncodeMod(m, pBig).Uint64()
		s.geo.DealInto(sh, secrets, aux[i*(p.K-1):(i+1)*(p.K-1)])
		out[i] = s.newCipher(sh)
	}
	return out
}

// EncryptZeroVec returns n fresh sharings of zero.
func (s *Scheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	p := s.geo.p
	aux := make([]uint64, n*(p.K-1))
	s.drawAux(aux)
	zero := make([]uint64, p.W)
	sh := make([]uint64, p.N)
	out := make([]*homo.Ciphertext, n)
	for i := range out {
		s.geo.DealInto(sh, zero, aux[i*(p.K-1):(i+1)*(p.K-1)])
		out[i] = s.newCipher(sh)
	}
	return out
}

// --- adoption and wire --------------------------------------------------

// Adopt validates a deserialized share vector and re-tags it for this
// instance: exact bit length 64N+1 (sentinel limb present, no excess),
// and every share a reduced residue < P. Anything else is rejected, so
// a malformed or truncated wire share can never reach the arithmetic.
func (s *Scheme) Adopt(c *homo.Ciphertext) (*homo.Ciphertext, error) {
	n := s.geo.p.N
	if c == nil || c.V == nil || c.V.Sign() < 0 {
		return nil, fmt.Errorf("shamir: malformed share vector")
	}
	if got, want := c.V.BitLen(), 64*n+1; got != want {
		return nil, fmt.Errorf("shamir: share vector has %d bits, want %d (N=%d)", got, want, n)
	}
	buf := make([]byte, 8*n+1)
	c.V.FillBytes(buf)
	if buf[0] != 1 {
		return nil, fmt.Errorf("shamir: share vector sentinel corrupted")
	}
	for i := 0; i < n; i++ {
		if binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):]) >= P {
			return nil, fmt.Errorf("shamir: share %d out of field range", i)
		}
	}
	return &homo.Ciphertext{V: new(big.Int).Set(c.V), Tag: s.tag}, nil
}

// AppendCiphertext appends the canonical compact wire form of c.
func (s *Scheme) AppendCiphertext(dst []byte, c *homo.Ciphertext) []byte {
	return homo.AppendCiphertext(dst, c)
}

// MaxCiphertextBytes bounds the wire size of any share vector: the
// sentinel limb fixes it to exactly 8N+1 magnitude bytes plus the
// uvarint length prefix.
func (s *Scheme) MaxCiphertextBytes() int {
	n := 8*s.geo.p.N + 1
	return n + len(binary.AppendUvarint(nil, uint64(n)))
}

var (
	_ homo.Scheme         = (*Scheme)(nil)
	_ homo.BatchScheme    = (*Scheme)(nil)
	_ homo.Adopter        = (*Scheme)(nil)
	_ homo.WireCiphertext = (*Scheme)(nil)
	_ homo.InPlace        = (*Scheme)(nil)
	_ homo.Int64Decryptor = (*Scheme)(nil)
)
