package main

import (
	"fmt"
	"math/big"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/obs"
	"secmr/internal/sim"
)

// miner is what the traced assembly needs from a resource: the engine
// callbacks plus its interim rule set.
type miner interface {
	sim.Node
	Output() arm.RuleSet
}

// fullNode is a resource with every optional engine interface, as
// core.Resource has.
type fullNode interface {
	miner
	sim.NeighborJoiner
	sim.Rejoiner
	sim.TraceClocked
}

// tracedNode records a span around each engine callback of the
// wrapped resource.
type tracedNode struct {
	inner            miner
	rec              *recorder
	initN, tick, msg uint16
}

func (n *tracedNode) Init(ctx *sim.Context) {
	i := n.rec.begin(n.initN)
	n.inner.Init(ctx)
	n.rec.end(i)
}

func (n *tracedNode) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	i := n.rec.begin(n.msg)
	n.inner.OnMessage(ctx, from, payload)
	n.rec.end(i)
}

func (n *tracedNode) OnTick(ctx *sim.Context) {
	i := n.rec.begin(n.tick)
	n.inner.OnTick(ctx)
	n.rec.end(i)
}

func (n *tracedNode) Output() arm.RuleSet { return n.inner.Output() }

// tracedFullNode keeps the optional interfaces of a fullNode; join and
// rejoin callbacks are recorded under the layer's msg span name.
type tracedFullNode struct {
	tracedNode
	full fullNode
}

func (n *tracedFullNode) OnNeighborJoin(ctx *sim.Context, v sim.NodeID) {
	i := n.rec.begin(n.msg)
	n.full.OnNeighborJoin(ctx, v)
	n.rec.end(i)
}

func (n *tracedFullNode) OnRejoin(ctx *sim.Context) {
	i := n.rec.begin(n.msg)
	n.full.OnRejoin(ctx)
	n.rec.end(i)
}

func (n *tracedFullNode) TraceClock() *obs.Clock { return n.full.TraceClock() }

// wrapNode wraps a resource so its callbacks are recorded as
// <layer>.init/.tick/.msg spans. The wrapper implements exactly the
// optional engine interfaces the resource implements; a resource with
// only some of them is refused rather than silently changed.
func wrapNode(m miner, layer string, rec *recorder) (miner, error) {
	base := tracedNode{inner: m, rec: rec,
		initN: rec.id(layer + ".init"), tick: rec.id(layer + ".tick"), msg: rec.id(layer + ".msg")}
	if f, ok := m.(fullNode); ok {
		return &tracedFullNode{tracedNode: base, full: f}, nil
	}
	_, j := m.(sim.NeighborJoiner)
	_, r := m.(sim.Rejoiner)
	_, c := m.(sim.TraceClocked)
	if j || r || c {
		return nil, fmt.Errorf("perfbench: %T has a partial set of optional engine interfaces", m)
	}
	return &base, nil
}

// Scheme operations, in the order of opNames.
const (
	opAdd = iota
	opSub
	opScalarMul
	opRerandomize
	opEncryptZero
	opEncrypt
	opDecrypt
	opAddVec
	opScalarVec
	opRerandomizeVec
	opEncryptZeroVec
	opEncryptVec
	opAdopt
	numOps
)

var opNames = [numOps]string{"add", "sub", "scalar_mul", "rerandomize", "encrypt_zero",
	"encrypt", "decrypt", "add_vec", "scalar_vec", "rerandomize_vec", "encrypt_zero_vec",
	"encrypt_vec", "adopt"}

// batchWireScheme is the full capability set of a batch-capable
// scheme with a compact wire form (shamir.Scheme).
type batchWireScheme interface {
	homo.BatchScheme
	homo.Adopter
	homo.WireCiphertext
}

// tracedScheme times every scheme call and charges it to the open
// span. Vector calls go straight to the inner scheme's batch methods,
// so the traced run keeps the batch path (homo.AddVec would otherwise
// fall back to element-wise calls on a wrapper without them).
type tracedScheme struct {
	inner batchWireScheme
	rec   *recorder
	// elems counts the elements of vector calls, per op, for the
	// field-operation estimate.
	elems [numOps]int64
}

// wrapScheme wraps a scheme that has the full batch, adoption and wire
// capability set; any other scheme is refused, since the wrapper would
// otherwise add or hide capabilities the program type-checks for.
func wrapScheme(s homo.Scheme, rec *recorder) (*tracedScheme, error) {
	full, ok := s.(batchWireScheme)
	if !ok {
		return nil, fmt.Errorf("perfbench: scheme %s lacks the batch/adopt/wire capability set", s.Name())
	}
	return &tracedScheme{inner: full, rec: rec}, nil
}

func (s *tracedScheme) done(op int, start int64) { s.rec.charge(op, s.rec.now()-start) }

func (s *tracedScheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	defer s.done(opAdd, s.rec.now())
	return s.inner.Add(a, b)
}

func (s *tracedScheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	defer s.done(opSub, s.rec.now())
	return s.inner.Sub(a, b)
}

func (s *tracedScheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	defer s.done(opScalarMul, s.rec.now())
	return s.inner.ScalarMul(m, a)
}

func (s *tracedScheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	defer s.done(opRerandomize, s.rec.now())
	return s.inner.Rerandomize(a)
}

func (s *tracedScheme) EncryptZero() *homo.Ciphertext {
	defer s.done(opEncryptZero, s.rec.now())
	return s.inner.EncryptZero()
}

func (s *tracedScheme) PlaintextSpace() *big.Int { return s.inner.PlaintextSpace() }

func (s *tracedScheme) Encrypt(m *big.Int) *homo.Ciphertext {
	defer s.done(opEncrypt, s.rec.now())
	return s.inner.Encrypt(m)
}

func (s *tracedScheme) EncryptInt(m int64) *homo.Ciphertext {
	defer s.done(opEncrypt, s.rec.now())
	return s.inner.EncryptInt(m)
}

func (s *tracedScheme) Decrypt(c *homo.Ciphertext) *big.Int {
	defer s.done(opDecrypt, s.rec.now())
	return s.inner.Decrypt(c)
}

func (s *tracedScheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	defer s.done(opDecrypt, s.rec.now())
	return s.inner.DecryptSigned(c)
}

func (s *tracedScheme) Name() string { return s.inner.Name() }

func (s *tracedScheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.done(opAddVec, s.rec.now())
	s.elems[opAddVec] += int64(len(a))
	return s.inner.AddVec(a, b)
}

func (s *tracedScheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.done(opScalarVec, s.rec.now())
	s.elems[opScalarVec] += int64(len(xs))
	return s.inner.ScalarVec(ms, xs)
}

func (s *tracedScheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.done(opRerandomizeVec, s.rec.now())
	s.elems[opRerandomizeVec] += int64(len(xs))
	return s.inner.RerandomizeVec(xs)
}

func (s *tracedScheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	defer s.done(opEncryptZeroVec, s.rec.now())
	s.elems[opEncryptZeroVec] += int64(n)
	return s.inner.EncryptZeroVec(n)
}

func (s *tracedScheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	defer s.done(opEncryptVec, s.rec.now())
	s.elems[opEncryptVec] += int64(len(ms))
	return s.inner.EncryptVec(ms)
}

func (s *tracedScheme) Adopt(c *homo.Ciphertext) (*homo.Ciphertext, error) {
	defer s.done(opAdopt, s.rec.now())
	return s.inner.Adopt(c)
}

func (s *tracedScheme) AppendCiphertext(dst []byte, c *homo.Ciphertext) []byte {
	return s.inner.AppendCiphertext(dst, c)
}

func (s *tracedScheme) MaxCiphertextBytes() int { return s.inner.MaxCiphertextBytes() }

var _ batchWireScheme = (*tracedScheme)(nil)

// fieldCost estimates the GF(2^61−1) work behind the recorded scheme
// calls of a Shamir scheme with threshold k and committee n (packing
// width 1): dealing evaluates a degree k−1 polynomial at n points
// (n·(k−1) multiplications), reconstruction is a k-term dot product,
// add/sub are n additions, a scalar multiply is n multiplications.
// Bytes count the 8-byte shares read and written by the kernel.
func fieldCost(calls [numOps]int64, elems [numOps]int64, k, n int64) (mults, bytes int64) {
	deal := n * (k - 1)
	per := [numOps]struct{ mults, shares int64 }{
		opAdd:            {0, 3 * n},
		opSub:            {0, 3 * n},
		opScalarMul:      {n, 2 * n},
		opRerandomize:    {deal, 3 * n},
		opEncryptZero:    {deal, n},
		opEncrypt:        {deal, n},
		opDecrypt:        {k, k},
		opAddVec:         {0, 3 * n},
		opScalarVec:      {n, 2 * n},
		opRerandomizeVec: {deal, 3 * n},
		opEncryptZeroVec: {deal, n},
		opEncryptVec:     {deal, n},
		opAdopt:          {0, 2 * n},
	}
	for op := 0; op < numOps; op++ {
		count := calls[op]
		if op >= opAddVec && op <= opEncryptVec {
			count = elems[op]
		}
		mults += count * per[op].mults
		bytes += count * per[op].shares * 8
	}
	return mults, bytes
}
