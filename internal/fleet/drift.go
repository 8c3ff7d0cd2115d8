package fleet

import (
	"sort"
	"strings"

	"repro/internal/mathx"
)

// Per-scenario virtual-time drift detection. Wall-clock completion
// latency confounds host contention with simulation cost; virtual-time
// p99 is deterministic per job key, so a scenario family whose recent
// runs drift above their own established baseline signals a real
// regression (new seeds or params behaving worse), not a busy host.
// Families are keyed by the canonical job key prefix up to the seed —
// scenario + params + nothing run-specific.

const (
	// baselineMin completed samples establish a family's baseline and
	// are the minimum recent window before drift is judged.
	baselineMin = 8
	// baselineWindow bounds the recent sliding window per family.
	baselineWindow = 32
)

// baseline is one scenario family's virtual-time p99 reference: the
// first baselineMin observations freeze the base, later ones feed a
// sliding window compared against it.
type baseline struct {
	base   []float64
	recent []float64
}

// keyPrefix maps a canonical job key to its scenario family: the key
// up to (excluding) the seed field.
func keyPrefix(key string) string {
	if i := strings.Index(key, "|seed="); i >= 0 {
		return key[:i]
	}
	return key
}

// observeVirtualLocked feeds one completed run's virtual-time p99 into
// its family baseline. Callers hold s.mu.
func (s *Service) observeVirtualLocked(key string, e2e float64) {
	if e2e <= 0 {
		return
	}
	prefix := keyPrefix(key)
	b := s.baselines[prefix]
	if b == nil {
		b = &baseline{}
		s.baselines[prefix] = b
	}
	if len(b.base) < baselineMin {
		b.base = append(b.base, e2e)
		return
	}
	b.recent = append(b.recent, e2e)
	if len(b.recent) > baselineWindow {
		b.recent = b.recent[len(b.recent)-baselineWindow:]
	}
}

// driftedVirtualLocked lists scenario families whose recent virtual
// p99 exceeds driftFactor × their baseline p99, sorted. Callers hold
// s.mu.
func (s *Service) driftedVirtualLocked() []string {
	var drifted []string
	for prefix, b := range s.baselines {
		if len(b.base) < baselineMin || len(b.recent) < baselineMin {
			continue
		}
		if mathx.Quantile(b.recent, 0.99) > driftFactor*mathx.Quantile(b.base, 0.99) {
			drifted = append(drifted, prefix)
		}
	}
	sort.Strings(drifted)
	return drifted
}
