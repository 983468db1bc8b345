package oblivious

import (
	"math/big"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/obs"
	"secmr/internal/shamir"
)

func TestInstrumentSchemeCountsAndDelegates(t *testing.T) {
	inner := homo.NewPlain(64)
	sink := obs.NewSink()
	s := InstrumentScheme(inner, sink)
	if s.Name() != inner.Name() {
		t.Fatalf("name = %q, want %q", s.Name(), inner.Name())
	}

	a := s.EncryptInt(5)
	b := s.EncryptInt(7)
	sum := s.Add(a, b)
	if got := s.DecryptSigned(sum).Int64(); got != 12 {
		t.Fatalf("decrypt(add) = %d, want 12", got)
	}
	diff := s.Sub(a, b)
	if got := s.DecryptSigned(diff).Int64(); got != -2 {
		t.Fatalf("decrypt(sub) = %d, want -2", got)
	}
	if got := s.DecryptSigned(s.ScalarMul(3, a)).Int64(); got != 15 {
		t.Fatalf("decrypt(3*a) = %d, want 15", got)
	}
	if got := s.DecryptSigned(s.Rerandomize(a)).Int64(); got != 5 {
		t.Fatalf("decrypt(rerand) = %d, want 5", got)
	}
	if got := s.Decrypt(s.EncryptZero()).Sign(); got != 0 {
		t.Fatalf("decrypt(zero) = %d, want 0", got)
	}
	if got := s.Decrypt(s.Encrypt(big.NewInt(9))).Int64(); got != 9 {
		t.Fatalf("decrypt(encrypt) = %d, want 9", got)
	}
	if s.PlaintextSpace().Cmp(inner.PlaintextSpace()) != 0 {
		t.Fatal("plaintext space not delegated")
	}

	want := map[string]float64{
		"add": 1, "sub": 1, "scalar_mul": 1, "rerandomize": 1,
		"encrypt_zero": 1, "encrypt": 3, "decrypt": 6,
	}
	got := map[string]float64{}
	for _, p := range sink.Reg.Snapshot() {
		if p.Name == "secmr_crypto_ops_total" {
			got[labelValue(p.Labels, "op")] = p.Value
		}
	}
	for op, n := range want {
		if got[op] != n {
			t.Fatalf("op %s count = %v, want %v (all: %v)", op, got[op], n, got)
		}
	}

	// Adoption passes through to the inner scheme.
	ad, ok := s.(homo.Adopter)
	if !ok {
		t.Fatal("instrumented scheme must implement Adopter")
	}
	adopted, err := ad.Adopt(&homo.Ciphertext{V: new(big.Int).Set(a.V)})
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if gotV := s.DecryptSigned(adopted).Int64(); gotV != 5 {
		t.Fatalf("decrypt(adopted) = %d, want 5", gotV)
	}
}

func TestInstrumentSchemeCryptoTraceIsExplicitOnly(t *testing.T) {
	sink := obs.NewSink()
	s := InstrumentScheme(homo.NewPlain(64), sink)
	s.EncryptInt(1)
	if sink.Tr.Len() != 0 {
		t.Fatal("crypto events traced without explicit enable")
	}
	sink.Tr.SetFilter(obs.Filter{Types: []obs.EventType{obs.EvCryptoOp}})
	s.EncryptInt(1)
	evs := sink.Tr.Events(obs.Filter{})
	if len(evs) != 1 || evs[0].Type != obs.EvCryptoOp || evs[0].Detail != "encrypt" {
		t.Fatalf("crypto trace wrong: %+v", evs)
	}
}

func TestInstrumentSchemeNilSinkIsIdentity(t *testing.T) {
	inner := homo.NewPlain(64)
	if s := InstrumentScheme(inner, nil); s != homo.Scheme(inner) {
		t.Fatal("nil sink must return the scheme unwrapped")
	}
}

// labelValue extracts one label's value from a rendered label string
// like `op="add",scheme="plain"`.
func labelValue(labels, key string) string {
	for _, part := range splitLabels(labels) {
		if len(part) > len(key)+2 && part[:len(key)] == key {
			return part[len(key)+2 : len(part)-1]
		}
	}
	return ""
}

func splitLabels(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// TestInstrumentSchemeForwardsInPlace: the decorator must keep the
// wrapped scheme's in-place and int64-decrypt fast paths reachable —
// otherwise every instrumented caller (secmrd runs with telemetry on)
// silently takes the allocating fallback — and must count them under
// the existing op labels.
func TestInstrumentSchemeForwardsInPlace(t *testing.T) {
	sink := obs.NewSink()
	s := InstrumentScheme(shamir.MustNew(shamir.Params{K: 2, N: 4, W: 1}), sink)
	ip, ok := s.(homo.InPlace)
	if !ok {
		t.Fatal("instrumented scheme must implement homo.InPlace")
	}
	di, ok := s.(homo.Int64Decryptor)
	if !ok {
		t.Fatal("instrumented scheme must implement homo.Int64Decryptor")
	}
	a, b := s.EncryptInt(5), s.EncryptInt(7)
	dst := &homo.Ciphertext{}
	ip.AddInto(dst, a, b)
	if got := di.DecryptInt64(dst); got != 12 {
		t.Fatalf("AddInto decrypts to %d, want 12", got)
	}
	ip.SubInto(dst, dst, a)
	if got := di.DecryptInt64(dst); got != 7 {
		t.Fatalf("SubInto decrypts to %d, want 7", got)
	}
	ip.ScalarMulInto(dst, -2, dst)
	if got := homo.DecryptInt64(s, dst); got != -14 {
		t.Fatalf("ScalarMulInto decrypts to %d, want -14", got)
	}

	want := map[string]float64{"add": 1, "sub": 1, "scalar_mul": 1, "decrypt": 3, "encrypt": 2}
	got := map[string]float64{}
	for _, p := range sink.Reg.Snapshot() {
		if p.Name == "secmr_crypto_ops_total" {
			got[labelValue(p.Labels, "op")] = p.Value
		}
	}
	for op, n := range want {
		if got[op] != n {
			t.Fatalf("op %s count = %v, want %v (all: %v)", op, got[op], n, got)
		}
	}
}
