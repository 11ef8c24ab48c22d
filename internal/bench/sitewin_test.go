package bench

// The per-site batching-win table of EXPERIMENTS.md ("Cross-operation
// batching"). For every pwb site of the four batch-consuming structures
// this applies the paper's L/M/H methodology — measure the site's
// individual cost by adding it alone to the persistence-free run — once
// unbatched and once under the ambient write-combining policy, and
// reports the cost batching recovers per site. Opt-in (it is a
// measurement, not a correctness test):
//
//	BATCH_SITE_TABLE=1 go test -run TestBatchSiteWinTable -v ./internal/bench/
//
// The thresholds are the repo's categorization ones: a site whose lone
// cost is <10% of the persistence-free time is Low, 10-30% Medium, >30%
// High.

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/pmem"
)

const (
	siteWinOps     = 40_000
	siteWinRepeats = 3
	siteWinBatch   = 8
)

// siteWinRun measures ns/op of one commit-path structure with the given
// site configuration: only != "" enables just that site, free disables
// every site; both disable psync (the methodology isolates flush cost).
func siteWinRun(setup func(p *pmem.Pool, ctx *pmem.ThreadCtx, batchOps int) func(i, total int),
	batchOps int, free bool, only string) float64 {
	best := 0.0
	for r := 0; r < siteWinRepeats; r++ {
		p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: 2})
		ctx := p.NewThread(1)
		body := setup(p, ctx, batchOps)
		if free || only != "" {
			p.SetAllSitesEnabled(false)
			p.SetPsyncEnabled(false)
		}
		if only != "" {
			for i, label := range p.SiteLabels() {
				if label == only {
					p.SetSiteEnabled(pmem.Site(i), true)
				}
			}
		}
		if batchOps > 0 {
			p.SetBatchPolicy(batchOps)
		}
		start := time.Now()
		for i := 0; i < siteWinOps; i++ {
			body(i, siteWinOps)
		}
		ctx.Retire()
		ns := float64(time.Since(start).Nanoseconds()) / float64(siteWinOps)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func categoryOf(lossPct float64) string {
	switch {
	case lossPct > 30:
		return "H"
	case lossPct > 10:
		return "M"
	default:
		return "L"
	}
}

func TestBatchSiteWinTable(t *testing.T) {
	if os.Getenv("BATCH_SITE_TABLE") == "" {
		t.Skip("measurement driver; set BATCH_SITE_TABLE=1 to run")
	}
	structures := []struct {
		name  string
		setup func(p *pmem.Pool, ctx *pmem.ThreadCtx, batchOps int) func(i, total int)
	}{
		{"redolog", setupRedologCommit},
		{"romulus", setupRomulusCommit},
		{"rqueue", setupRQueueOps},
		{"rstack", setupRStackOps},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n| structure | site | pwbs/op | cat | lone cost (ns/op) | batched (ns/op) | win |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	for _, s := range structures {
		// One full run for the per-site recorded counts (batching-invariant).
		p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: 2})
		ctx := p.NewThread(1)
		body := s.setup(p, ctx, 0)
		base := p.Snapshot()
		for i := 0; i < siteWinOps; i++ {
			body(i, siteWinOps)
		}
		ctx.Retire()
		st := p.Snapshot().Sub(base)
		labels := p.SiteLabels()

		free := siteWinRun(s.setup, 0, true, "")
		freeBatched := siteWinRun(s.setup, siteWinBatch, true, "")
		for _, label := range labels {
			count := st.PWBsBySite[label]
			if count == 0 {
				continue
			}
			lone := siteWinRun(s.setup, 0, false, label) - free
			loneB := siteWinRun(s.setup, siteWinBatch, false, label) - freeBatched
			if lone < 0 {
				lone = 0
			}
			if loneB < 0 {
				loneB = 0
			}
			win := 0.0
			if lone > 0 {
				win = 100 * (lone - loneB) / lone
			}
			fmt.Fprintf(&b, "| %s | `%s` | %.2f | %s | %.0f | %.0f | %.0f%% |\n",
				s.name, label, float64(count)/siteWinOps,
				categoryOf(100*lone/free), lone, loneB, win)
		}
	}
	t.Log(b.String())
}
