// Package stock names and materializes the stock workloads the CLIs
// run against the appendix machines: each workload kind is stored in
// the workload catalog under a parameter-complete key, so any two
// processes (a dsasim sweep, its worker children, a declarative
// machines scenario) that agree on the parameters share one
// materialization — in memory within a process, and across processes
// and runs through a -cache-dir disk layer.
//
// The keys embed every generation determinant — kind, extent or cap,
// counts, and the seed for the stochastic kinds — so two machines
// whose parameters coincide share one materialization and two that
// differ can never alias (the disk layer's contract). The key strings
// are stable ("dsasim/..."): changing them orphans every existing
// cache entry, and changing a generator's output instead requires
// bumping catalog.DiskVersion.
package stock

import (
	"fmt"

	"dsa/internal/machine"
	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
)

// Kinds lists the workload kinds dsasim accepts, linear trace kinds
// first, the segmented kind last.
func Kinds() []string {
	return []string{"workingset", "phased", "sequential", "random", "loop", "matrix", "segments"}
}

// Extent picks a linear name-space extent suitable for the machine: a
// large share of the virtual space for paged machines (exercising the
// mapping), a fraction of core for segment machines (which hold one
// implicit contiguous segment).
func Extent(m *machine.Machine) uint64 {
	ext := m.System.LinearExtent()
	if m.System.Characteristics().UniformUnits {
		if ext > 64*1024 {
			return 64 * 1024
		}
		return ext
	}
	return ext / 4
}

// segmentsKey names the machine-independent segmented workload.
func segmentsKey(segs, refs int, seed uint64) string {
	return fmt.Sprintf("dsasim/segments/segs=%d/refs=%d@%x", segs, refs, seed)
}

// linearKey names one linear trace kind at one extent; the stochastic
// kinds embed the seed. It returns "" for an unknown kind.
func linearKey(kind string, extent uint64, refs int, seed uint64) string {
	switch kind {
	case "sequential":
		return fmt.Sprintf("dsasim/sequential/refs=%d/limit=%d", refs, extent)
	case "random":
		return fmt.Sprintf("dsasim/random/extent=%d/refs=%d@%x", extent, refs, seed)
	case "loop":
		return fmt.Sprintf("dsasim/loop/refs=%d", refs)
	case "matrix":
		return "dsasim/matrix/rows=128/cols=128/bycols"
	case "workingset":
		return fmt.Sprintf("dsasim/workingset/extent=%d/refs=%d@%x", extent, refs, seed)
	case "phased":
		return fmt.Sprintf("dsasim/phased/extent=%d/refs=%d@%x", extent, refs, seed)
	default:
		return ""
	}
}

// Segments materializes the machine-independent segmented workload
// through the store.
func Segments(cat *catalog.Catalog, segs, refs int, seed uint64) (machine.SegWorkload, error) {
	return catalog.Get(cat, segmentsKey(segs, refs, seed),
		func() (machine.SegWorkload, error) {
			return machine.CommonWorkload(seed, segs, refs), nil
		})
}

// Linear materializes the linear reference trace of the named kind for
// a machine whose linear extent is extent. Callers must treat the
// returned trace as read-only (the catalog's immutability contract).
func Linear(cat *catalog.Catalog, kind string, extent uint64, refs int, seed uint64) (trace.Trace, error) {
	key := linearKey(kind, extent, refs, seed)
	switch kind {
	case "sequential":
		return catalog.Get(cat, key, func() (trace.Trace, error) {
			return capTrace(workload.Sequential(32*1024, 1+refs/(32*1024)), extent), nil
		})
	case "random":
		return catalog.Get(cat, key, func() (trace.Trace, error) {
			return workload.UniformRandom(sim.NewRNG(seed), extent, refs), nil
		})
	case "loop":
		return catalog.Get(cat, key, func() (trace.Trace, error) {
			return workload.Loop(24, 512, refs/24+1), nil
		})
	case "matrix":
		return catalog.Get(cat, key, func() (trace.Trace, error) {
			return workload.Matrix(128, 128, true), nil
		})
	case "workingset":
		return catalog.Get(cat, key, func() (trace.Trace, error) {
			return workload.WorkingSet(sim.NewRNG(seed), workload.WorkloadWS(extent, refs))
		})
	case "phased":
		return catalog.Get(cat, key, func() (trace.Trace, error) {
			return workload.Phased(sim.NewRNG(seed), workload.PhasedDefault(extent, refs))
		})
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
}

// requestsKey names one placement request stream; every generation
// determinant (distribution shape and the derived seed) is embedded.
func requestsKey(cfg workload.RequestConfig, seed uint64) string {
	return fmt.Sprintf("dsasim/requests/%s/min=%d/max=%d/mean=%d/life=%d/count=%d@%x",
		cfg.Dist, cfg.MinSize, cfg.MaxSize, cfg.MeanSize, cfg.MeanLifetime, cfg.Count, seed)
}

// Requests materializes a placement request stream through the store —
// the request-distribution families (uniform, exponential, bimodal,
// fixed) declarative placement scenarios sweep policies over.
func Requests(cat *catalog.Catalog, cfg workload.RequestConfig, seed uint64) ([]workload.Request, error) {
	return catalog.Get(cat, requestsKey(cfg, seed), func() ([]workload.Request, error) {
		return workload.Requests(sim.NewRNG(seed), cfg)
	})
}

// adversarialKey names one adversarial interleaving; the target policy
// is a generation determinant like any other parameter.
func adversarialKey(cfg workload.AdversarialConfig, seed uint64) string {
	return fmt.Sprintf("dsasim/adversarial/target=%s/heap=%d/count=%d@%x",
		cfg.Target, cfg.HeapWords, cfg.Count, seed)
}

// Adversarial materializes a per-policy adversarial fragmentation
// interleaving through the store.
func Adversarial(cat *catalog.Catalog, cfg workload.AdversarialConfig, seed uint64) ([]workload.Request, error) {
	return catalog.Get(cat, adversarialKey(cfg, seed), func() ([]workload.Request, error) {
		return workload.Adversarial(sim.NewRNG(seed), cfg)
	})
}

// capTrace drops references at or beyond limit, into fresh storage.
func capTrace(tr trace.Trace, limit uint64) trace.Trace {
	out := make(trace.Trace, 0, len(tr))
	for _, r := range tr {
		if r.Name < limit {
			out = append(out, r)
		}
	}
	return out
}
