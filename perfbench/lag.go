package main

import (
	"sort"
	"time"
)

// ack is one admitted ingest batch: its tenant, when the 202 arrived,
// and the mining step at which the batch is fully absorbed (the step
// at the ack plus ⌈queue/GrowthPerStep⌉).
type ack struct {
	tenant string
	at     time.Time
	target int64
}

// putEvent is one store.Put seen by the benchmark's store wrapper,
// with the service's step count read inside the call.
type putEvent struct {
	tenant string
	at     time.Time
	step   int64
}

// publishLags attributes each ack to the first Put for its tenant at
// or after the ack whose step reached the ack's target, and returns
// the time between the two, timed at the ack. Acks with no such Put
// are counted in missing.
func publishLags(acks []ack, puts []putEvent) (lags []timed, missing int) {
	byTenant := map[string][]putEvent{}
	for _, p := range puts {
		byTenant[p.tenant] = append(byTenant[p.tenant], p)
	}
	for _, ps := range byTenant {
		sort.Slice(ps, func(i, j int) bool { return ps[i].at.Before(ps[j].at) })
	}
	for _, a := range acks {
		ps := byTenant[a.tenant]
		// Puts are in time order; skip those before the ack.
		i := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(a.at) })
		found := false
		for ; i < len(ps); i++ {
			if ps[i].step >= a.target {
				lags = append(lags, timed{at: a.at, d: ps[i].at.Sub(a.at)})
				found = true
				break
			}
		}
		if !found {
			missing++
		}
	}
	return lags, missing
}
