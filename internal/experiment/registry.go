package experiment

import (
	"fmt"
	"io"
)

// entry couples an experiment ID with its description and runner.
type entry struct {
	id   string
	desc string
	run  func(*Suite) ([]*Table, error)
}

func one(f func(*Suite) (*Table, error)) func(*Suite) ([]*Table, error) {
	return func(s *Suite) ([]*Table, error) {
		t, err := f(s)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// registry lists every reproducible artifact in paper order.
var registry = []entry{
	{"fig1", "ideal I-cache speedup over LRU, no prefetching", one((*Suite).Fig1)},
	{"fig2", "FDIP speedup with LRU and with ideal replacement", one((*Suite).Fig2)},
	{"fig3", "prior replacement policies vs LRU under FDIP", one((*Suite).Fig3)},
	{"tab1", "replacement-policy metadata storage overheads", one((*Suite).Tab1)},
	{"tab2", "simulator parameters", one((*Suite).Tab2)},
	{"obs12", "Sec II-C: decomposition of prefetch-aware ideal gains", one((*Suite).Obs12)},
	{"compulsory", "Sec II-D: compulsory MPKI (scanning rarity)", one((*Suite).Compulsory)},
	{"fig5", "worked eviction-analysis example", one((*Suite).Fig5)},
	{"fig6", "coverage/accuracy vs invalidation threshold (finagle-http)", one((*Suite).Fig6)},
	{"fig7", "Ripple speedup vs priors and ideal, 3 prefetchers", (*Suite).Fig7},
	{"fig8", "L1I miss reduction, 3 prefetchers", (*Suite).Fig8},
	{"fig9", "Ripple replacement coverage", one((*Suite).Fig9)},
	{"fig10", "Ripple replacement accuracy", one((*Suite).Fig10)},
	{"fig11", "static instruction overhead", one((*Suite).Fig11)},
	{"fig12", "dynamic instruction overhead", one((*Suite).Fig12)},
	{"fig13", "cross-input profile generalization", one((*Suite).Fig13)},
	{"demote", "Sec IV: invalidate vs LRU-demote hints", one((*Suite).Demote)},
	{"granularity", "Sec III-C: line vs block victim granularity", one((*Suite).Granularity)},
	// Extensions beyond the paper's figures, grounded in its text.
	{"arch", "Sec V: per-target-architecture tuning (geometry matrix)", one((*Suite).Arch)},
	{"merged", "extension: merged multi-input profiles vs single-input", one((*Suite).Merged)},
	{"lbr", "Sec III-A: PT trace vs LBR-sampled profile quality", one((*Suite).LBR)},
	{"xprefetch", "related work: temporal record/replay prefetching + Ripple", one((*Suite).XPrefetch)},
	{"layout", "ablation: layout-neutral vs relayout injection placement", one((*Suite).Layout)},
	{"codelayout", "extension: BOLT/C3-style layout optimization vs and with Ripple", one((*Suite).CodeLayout)},
	{"windowcap", "ablation: analysis window cap (MaxWindowBlocks)", one((*Suite).WindowCap)},
	{"hintcost", "ablation: invalidate-hint execution cost sensitivity", one((*Suite).HintCost)},
	{"phases", "extension: phase-varying request mixes (dynamic reuse variance)", one((*Suite).Phases)},
	{"trrip", "extension: temperature-tiered RRIP baseline + Ripple hints", one((*Suite).TRRIPZoo)},
}

// IDs returns every experiment ID in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Describe returns a one-line description of an experiment ID.
func Describe(id string) (string, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.desc, true
		}
	}
	return "", false
}

// Tables computes the tables of one experiment without rendering them.
// Every table is assembled from the suite's cell jobs, so with a result
// store configured a repeat invocation is served from the persisted
// cells.
func (s *Suite) Tables(id string) ([]*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
}

// Run computes one experiment (or "all") and renders its tables to w.
func (s *Suite) Run(id string, w io.Writer) error {
	ids := []string{id}
	if id == "all" {
		ids = IDs()
	}
	for _, one := range ids {
		tables, err := s.Tables(one)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", one, err)
		}
		for _, t := range tables {
			t.Render(w)
		}
	}
	return nil
}
