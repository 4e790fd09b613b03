package experiments

import "clustersmt/internal/workload"

// Options selects a workload subset of the pool: a campaign manifest's
// categories and per-category cap. The zero value is the paper's full
// pool.
type Options struct {
	// Categories restricts to the named categories (nil = all 11).
	Categories []string
	// MaxPerCategory caps workloads per category (0 = all); the figures'
	// quick pool and benchmarks use small caps.
	MaxPerCategory int
}

// categories returns the selected category keys in paper order.
func (o Options) categories() []string {
	if len(o.Categories) == 0 {
		return workload.Categories
	}
	return o.Categories
}

// workloads returns the selected workloads of one category. When capped,
// the subset covers the ILP/MEM/MIX types round-robin so a reduced pool
// keeps the category's behavioural spread.
func (o Options) workloads(cat string) []workload.Workload {
	ws := workload.ByCategory(cat)
	if o.MaxPerCategory <= 0 || len(ws) <= o.MaxPerCategory {
		return ws
	}
	byType := map[workload.Type][]workload.Workload{}
	var order []workload.Type
	for _, w := range ws {
		if len(byType[w.Type]) == 0 {
			order = append(order, w.Type)
		}
		byType[w.Type] = append(byType[w.Type], w)
	}
	var out []workload.Workload
	for len(out) < o.MaxPerCategory {
		progressed := false
		for _, ty := range order {
			if len(byType[ty]) == 0 {
				continue
			}
			out = append(out, byType[ty][0])
			byType[ty] = byType[ty][1:]
			progressed = true
			if len(out) == o.MaxPerCategory {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// Selected returns every workload the options select, in deterministic
// category order.
func (o Options) Selected() []workload.Workload {
	var out []workload.Workload
	for _, cat := range o.categories() {
		out = append(out, o.workloads(cat)...)
	}
	return out
}
