package secmr

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// pinnedRun is what a fixed-seed secure grid must reproduce exactly:
// a digest of every resource's mined rules, and the protocol counters.
type pinnedRun struct {
	rules string
	stats GridStats
}

// runPinned mines a fixed-seed secure grid for 150 steps and reduces
// it to a pinnedRun. BytesSent is zeroed for Paillier, whose
// minimal-length ciphertext encoding varies with the encryption
// randomness.
func runPinned(t *testing.T, crypto Crypto, seed int64) pinnedRun {
	t.Helper()
	cfg := GridConfig{
		Algorithm: AlgorithmSecure, Resources: 6, K: 2, Crypto: crypto,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: seed,
	}
	if crypto == CryptoPaillier {
		cfg.Resources, cfg.PaillierBits = 4, 128
	}
	grid, err := NewGrid(smallDB(600, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	grid.Step(150)
	h := sha256.New()
	for i := 0; i < grid.Resources(); i++ {
		var keys []string
		for _, r := range grid.Output(i).Sorted() {
			keys = append(keys, r.Key())
		}
		h.Write([]byte(strings.Join(keys, "\n") + "\n--\n"))
	}
	st := grid.Stats()
	if crypto == CryptoPaillier {
		st.BytesSent = 0
	}
	return pinnedRun{rules: hex.EncodeToString(h.Sum(nil))[:16], stats: st}
}

// TestSecureStepPinnedToRecordedRuns pins the secure step to runs
// recorded before the broker's SFE inputs moved onto in-place scratch
// ciphertexts: the in-place arithmetic is exact, so on a fixed seed the
// mined rules and every protocol counter (messages, bytes, SFEs, fresh
// and gated decisions, engine traffic) must come out identical on the
// native in-place backend (Shamir) and on the fallback (Paillier).
func TestSecureStepPinnedToRecordedRuns(t *testing.T) {
	cases := []struct {
		crypto Crypto
		seed   int64
		want   pinnedRun
	}{
		{CryptoShamir, 1, pinnedRun{"b35d6ff386830195", GridStats{MessagesSent: 7549, BytesSent: 2924362,
			SFEs: 17696, Fresh: 9567, Gated: 4463, EngineSent: 7559, EngineDelivered: 7559}}},
		{CryptoShamir, 2, pinnedRun{"668de347b0e2fc2f", GridStats{MessagesSent: 9408, BytesSent: 3320464,
			SFEs: 22202, Fresh: 8767, Gated: 7650, EngineSent: 9418, EngineDelivered: 9418}}},
		{CryptoPaillier, 3, pinnedRun{"aff67d49e1e870b4", GridStats{MessagesSent: 2018,
			SFEs: 4448, Fresh: 3247, Gated: 602, EngineSent: 2024, EngineDelivered: 2024}}},
	}
	for _, c := range cases {
		if c.crypto == CryptoPaillier && testing.Short() {
			continue
		}
		got := runPinned(t, c.crypto, c.seed)
		if got != c.want {
			t.Errorf("%s seed %d: got %#v, recorded %#v", c.crypto, c.seed, got, c.want)
		}
	}
}
