// Package workload reconstructs the paper's benchmark pool (Table 2):
// 120 two-threaded workloads across 11 categories, each trace classified as
// highly parallel (ILP), memory-bounded (MEM) or mixed (MIX).
//
// Table 2 lists 3/3/2 ILP/MEM/MIX workloads for each ordinary category;
// Fig. 9 shows ISPEC-FSPEC with 4 ILP + 4 MEM + 8 MIX workloads and the
// mixes category contributes 32, which is exactly how the pool reaches the
// stated 120 (9×8 + 16 + 32). The original traces are proprietary, so each
// trace here is a statistical profile (package trace) tuned per category;
// see DESIGN.md §2 for the substitution argument.
package workload

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"clustersmt/internal/trace"
	"clustersmt/internal/xrand"
)

// Type classifies a workload per Table 2.
type Type uint8

const (
	// ILP marks highly parallel workloads.
	ILP Type = iota
	// MEM marks memory-bounded workloads.
	MEM
	// MIX pairs one parallel and one memory-bounded trace.
	MIX
)

// String names the type as in the paper ("ilp", "mem", "mix").
func (t Type) String() string {
	switch t {
	case ILP:
		return "ilp"
	case MEM:
		return "mem"
	default:
		return "mix"
	}
}

// Workload is one 2-thread benchmark: a pair of trace profiles plus seeds.
type Workload struct {
	// Name is "<category>.<type>.2.<index>", echoing Fig. 9's naming.
	Name string
	// Category is the Table 2 row.
	Category string
	// Type is the ILP/MEM/MIX classification.
	Type Type
	// Threads holds one profile per hardware thread.
	Threads []trace.Profile
	// Seeds deterministically seed each thread's generator.
	Seeds []uint64
}

// Categories lists the Table 2 rows in paper order. "isfs" is ISPEC-FSPEC.
var Categories = []string{
	"dh", "fspec00", "ispec00", "isfs", "mixes",
	"multimedia", "office", "productivity", "server", "miscellanea", "workstation",
}

// CheckCategories rejects any name that is not a category key.
func CheckCategories(cats []string) error {
	for _, c := range cats {
		if !slices.Contains(Categories, c) {
			return fmt.Errorf("unknown category %q (known: %v)", c, Categories)
		}
	}
	return nil
}

// DisplayName maps the short category key to the paper's label.
func DisplayName(cat string) string {
	switch cat {
	case "dh":
		return "DH"
	case "fspec00":
		return "FSPEC00"
	case "ispec00":
		return "ISPEC00"
	case "isfs":
		return "ISPEC-FSPEC"
	case "mixes":
		return "mixes"
	default:
		return cat
	}
}

// categoryTune adjusts a template profile to a category's character.
func categoryTune(cat string, p trace.Profile) trace.Profile {
	switch cat {
	case "dh": // Digital Home: streaming kernels, strided, some SIMD
		p.ChaseFrac = 0.3
		p.MixFp += 0.08
		p.MixInt -= 0.08
		p.FpDataFrac = 0.35
		p.StrideFrac = minf(1, p.StrideFrac+0.08)
		p.BranchBias = minf(1, p.BranchBias+0.01)
	case "fspec00": // FP SPEC2K: FP-dominated loops; streaming misses
		// overlap freely (high memory-level parallelism, little chasing)
		p.ChaseFrac = 0.25
		p.MixFp += 0.22
		p.MixInt -= 0.18
		p.MixBranch -= 0.04
		p.FpDataFrac = 0.75
		p.DepP = maxf(0.05, p.DepP-0.04)
		p.BranchBias = minf(1, p.BranchBias+0.02)
		p.NumBranchSites = maxi(8, p.NumBranchSites/2)
	case "ispec00": // Int SPEC2K: integer-only, branchy, pointer-chasing
		p.ChaseFrac = minf(1, p.ChaseFrac+0.1)
		p.MixFp = 0.0
		p.MixInt += 0.09
		p.FpDataFrac = 0.02
		p.DepP = maxf(0.05, p.DepP-0.06) // many distant live values
		p.NumBranchSites *= 2
		p.BranchBias = maxf(0.5, p.BranchBias-0.03)
		p.BranchNoise = minf(0.3, p.BranchNoise+0.02)
	case "multimedia": // mpeg/speech: SIMD + strided, streaming misses
		p.ChaseFrac = 0.3
		p.MixFp += 0.12
		p.MixInt -= 0.1
		p.FpDataFrac = 0.45
		p.StrideFrac = minf(1, p.StrideFrac+0.05)
	case "office": // Office: branchy pointer chasing, big code
		p.MixBranch += 0.05
		p.MixInt += 0.02
		p.MixFp = maxf(0, p.MixFp-0.06)
		p.FpDataFrac = 0.05
		p.DepP = minf(1, p.DepP+0.08)
		p.NumBranchSites *= 4
		p.BranchBias = maxf(0.5, p.BranchBias-0.05)
		p.BranchNoise = minf(0.3, p.BranchNoise+0.04)
		p.CodeFootprint *= 2
	case "productivity": // Sysmark: like office, slightly more memory
		p.MixBranch += 0.03
		p.MixLoad += 0.03
		p.MixFp = maxf(0, p.MixFp-0.05)
		p.FpDataFrac = 0.06
		p.NumBranchSites *= 2
		p.BranchBias = maxf(0.5, p.BranchBias-0.04)
		p.BranchNoise = minf(0.3, p.BranchNoise+0.03)
	case "server": // TPC: poor locality, branchy, pointer-heavy indices
		p.ChaseFrac = minf(1, p.ChaseFrac+0.1)
		p.MixLoad += 0.05
		p.MixStore += 0.02
		p.MixFp = maxf(0, p.MixFp-0.07)
		p.FpDataFrac = 0.03
		p.StrideFrac = maxf(0, p.StrideFrac-0.25)
		p.WorkingSet *= 2
		p.NumBranchSites *= 4
		p.BranchBias = maxf(0.5, p.BranchBias-0.05)
		p.BranchNoise = minf(0.3, p.BranchNoise+0.04)
	case "workstation": // CAD/render: FP heavy, strided scene data
		p.ChaseFrac = 0.35
		p.MixFp += 0.18
		p.MixInt -= 0.14
		p.FpDataFrac = 0.6
		p.WorkingSet *= 2
		p.DepP = maxf(0.05, p.DepP-0.03)
	case "miscellanea": // games + matrix kernels
		p.MixFp += 0.06
		p.MixIntMul += 0.03
		p.MixInt -= 0.07
		p.FpDataFrac = 0.3
	}
	return p
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// jitter applies small deterministic per-trace variation so the traces in a
// category are siblings, not clones.
func jitter(p trace.Profile, seed uint64) trace.Profile {
	r := xrand.New(seed)
	scale := func(v, pct float64) float64 { return v * (1 + (r.Float64()*2-1)*pct) }
	p.DepP = minf(1, maxf(0.03, scale(p.DepP, 0.15)))
	p.TwoSrcFrac = minf(1, maxf(0, scale(p.TwoSrcFrac, 0.1)))
	p.StrideFrac = minf(1, maxf(0, scale(p.StrideFrac, 0.1)))
	p.WorkingSet = uint64(maxf(1024, scale(float64(p.WorkingSet), 0.25)))
	p.BranchBias = minf(1, maxf(0.5, scale(p.BranchBias, 0.03)))
	return p
}

// traceProfile builds the i-th trace of a category and kind.
// kind is "ilp" or "mem".
func traceProfile(cat, kind string, i int) trace.Profile {
	name := fmt.Sprintf("%s.%s.%d", cat, kind, i)
	var p trace.Profile
	if kind == "mem" {
		p = trace.MemProfile(name)
	} else {
		p = trace.ILPProfile(name)
	}
	p = categoryTune(cat, p)
	seed := nameSeed(name)
	p = jitter(p, seed)
	// Tuning and jitter may push the locality fractions past their joint
	// bound; the stride stream yields to the cold fraction.
	if p.StrideFrac+p.ColdFrac > 1 {
		p.StrideFrac = 1 - p.ColdFrac
	}
	return p
}

// nameSeed derives a stable seed from a trace name.
func nameSeed(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// makeWorkload assembles a named 2-thread workload from two profiles.
func makeWorkload(cat string, typ Type, idx int, a, b trace.Profile) Workload {
	name := fmt.Sprintf("%s.%s.2.%d", cat, typ, idx)
	return Workload{
		Name:     name,
		Category: cat,
		Type:     typ,
		Threads:  []trace.Profile{a, b},
		Seeds:    []uint64{nameSeed(name + ".t0"), nameSeed(name + ".t1")},
	}
}

// pairCounts returns the per-type workload counts for a category
// (Table 2 + the Fig. 9 ISPEC-FSPEC layout).
func pairCounts(cat string) (ilp, mem, mix int) {
	switch cat {
	case "isfs":
		return 4, 4, 8
	case "mixes":
		return 0, 0, 32
	default:
		return 3, 3, 2
	}
}

// categoryPool builds the workloads of one ordinary category: ILP pairs two
// parallel traces, MEM two memory-bounded ones, MIX one of each.
func categoryPool(cat string) []Workload {
	nILP, nMEM, nMIX := pairCounts(cat)
	var out []Workload
	for i := 1; i <= nILP; i++ {
		a := traceProfile(cat, "ilp", 2*i-1)
		b := traceProfile(cat, "ilp", 2*i)
		out = append(out, makeWorkload(cat, ILP, i, a, b))
	}
	for i := 1; i <= nMEM; i++ {
		a := traceProfile(cat, "mem", 2*i-1)
		b := traceProfile(cat, "mem", 2*i)
		out = append(out, makeWorkload(cat, MEM, i, a, b))
	}
	for i := 1; i <= nMIX; i++ {
		a := traceProfile(cat, "ilp", 100+i)
		b := traceProfile(cat, "mem", 100+i)
		out = append(out, makeWorkload(cat, MIX, i, a, b))
	}
	return out
}

// isfsPool builds ISPEC-FSPEC: thread 0 from ISPEC00 (integer-RF-heavy),
// thread 1 from FSPEC00 (FP-heavy), so the threads' register demands are
// nearly disjoint — the situation where static RF partitioning loses (§5.2).
func isfsPool() []Workload {
	nILP, nMEM, nMIX := pairCounts("isfs")
	var out []Workload
	for i := 1; i <= nILP; i++ {
		a := traceProfile("ispec00", "ilp", 200+i)
		b := traceProfile("fspec00", "ilp", 200+i)
		out = append(out, makeWorkload("isfs", ILP, i, a, b))
	}
	for i := 1; i <= nMEM; i++ {
		a := traceProfile("ispec00", "mem", 200+i)
		b := traceProfile("fspec00", "mem", 200+i)
		out = append(out, makeWorkload("isfs", MEM, i, a, b))
	}
	for i := 1; i <= nMIX; i++ {
		// Alternate which side is memory-bounded.
		aKind, bKind := "ilp", "mem"
		if i%2 == 0 {
			aKind, bKind = "mem", "ilp"
		}
		a := traceProfile("ispec00", aKind, 300+i)
		b := traceProfile("fspec00", bKind, 300+i)
		out = append(out, makeWorkload("isfs", MIX, i, a, b))
	}
	return out
}

// mixesPool builds the 32 cross-category MIX workloads by pairing traces
// from all ordinary categories in a deterministic rotation.
func mixesPool() []Workload {
	cats := []string{
		"dh", "fspec00", "ispec00", "multimedia", "office",
		"productivity", "server", "workstation", "miscellanea",
	}
	var out []Workload
	for i := 1; i <= 32; i++ {
		ca := cats[(i-1)%len(cats)]
		cb := cats[(i+2)%len(cats)]
		aKind, bKind := "ilp", "mem"
		if i%3 == 0 {
			aKind = "mem"
		}
		if i%4 == 0 {
			bKind = "ilp"
		}
		a := traceProfile(ca, aKind, 400+i)
		b := traceProfile(cb, bKind, 400+i)
		out = append(out, makeWorkload("mixes", MIX, i, a, b))
	}
	return out
}

// The pool is a pure function of the category tables, but building it runs
// the profile tuning and jitter PRNG for all 120 workloads (~240 traces),
// and Find/ByCategory used to rebuild it on every call — a real cost for
// campaign expansion, which validates every named workload. Build it once
// and index it by name and category. Workload values share their inner
// Threads/Seeds slices with the cache; callers must treat those as
// read-only (campaign repetitions already copy before mutating).
var poolCache struct {
	once       sync.Once
	all        []Workload
	byName     map[string]Workload
	byCategory map[string][]Workload
}

func buildPool() {
	var all []Workload
	for _, cat := range Categories {
		switch cat {
		case "isfs":
			all = append(all, isfsPool()...)
		case "mixes":
			all = append(all, mixesPool()...)
		default:
			all = append(all, categoryPool(cat)...)
		}
	}
	byName := make(map[string]Workload, len(all))
	byCategory := make(map[string][]Workload, len(Categories))
	for _, w := range all {
		byName[w.Name] = w
		byCategory[w.Category] = append(byCategory[w.Category], w)
	}
	poolCache.all = all
	poolCache.byName = byName
	poolCache.byCategory = byCategory
}

// Pool returns all 120 two-threaded workloads of Table 2. The returned
// slice is the caller's to reorder; the elements share profile/seed slices
// with the cached pool.
func Pool() []Workload {
	poolCache.once.Do(buildPool)
	out := make([]Workload, len(poolCache.all))
	copy(out, poolCache.all)
	return out
}

// ByCategory returns the pool's workloads for one category key.
func ByCategory(cat string) []Workload {
	poolCache.once.Do(buildPool)
	ws := poolCache.byCategory[cat]
	out := make([]Workload, len(ws))
	copy(out, ws)
	return out
}

// Find returns the workload with the given name.
func Find(name string) (Workload, error) {
	poolCache.once.Do(buildPool)
	w, ok := poolCache.byName[name]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
	}
	return w, nil
}

// Names returns all workload names, sorted.
func Names() []string {
	pool := Pool()
	out := make([]string, len(pool))
	for i, w := range pool {
		out[i] = w.Name
	}
	sort.Strings(out)
	return out
}
