package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"prete/internal/fault"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/wan"
)

func init() {
	register("georep", "Cross-site replication sweep: promotion time, plan availability, and snapshot re-syncs vs replication-stream loss and retention lag", georep)
}

// georep sweeps cross-site failover under replication stress: a leader
// journals epochs while two remote sites apply its CRC-framed stream into
// their own state directories, with the stream to site 1 dropping frames at
// the swept rate and the leader's replication buffer capped at the swept
// retention. The leader's lease endpoint then dies; the surviving sites'
// leases run out and the lowest site promotes from its own replica —
// re-syncing by snapshot first if the loss pushed it behind the retention
// window. Per cell the table reports which site won, detection ticks,
// snapshot re-syncs the winner needed, retried frames on the lossy stream,
// whether the promoted controller held a plan immediately (plan_avail),
// whether its apply-path mirror matched durable truth (mirror), and the
// promotion wall time against the one-TE-period recovery bound.
func georep(w io.Writer, opts Options) error {
	drops := []float64{0, 0.3, 0.6}
	retains := []int{1, 64}
	if opts.Quick {
		drops = []float64{0, 0.6}
		retains = []int{1}
	}
	header(w, "drop", "retain", "promoted", "detect_ticks", "resyncs", "resent", "plan_avail", "mirror", "promote_ms", "te_period_ms", "within_period")
	for _, retain := range retains {
		for _, drop := range drops {
			cell, err := runHACell(opts, haCell{sites: 2, crashRPC: -1, drop: drop, retain: retain, epochs: 3, ticks: 3})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.0f\t%s\n",
				drop, retain, cell.promoted, cell.detectTicks, cell.resyncs,
				cell.resent, b2i(cell.planAvail), b2i(cell.mirrorMatch), ms(cell.promote), ms(haTEPeriod), cell.within())
		}
	}
	fmt.Fprintln(w, "# drop: per-frame loss probability on the replication stream to site 1 (site 2's stream is clean)")
	fmt.Fprintln(w, "# retain: leader-side replication buffer in records; a site behind it re-syncs by snapshot")
	fmt.Fprintln(w, "# resyncs: snapshot re-syncs the winning site applied over its standby lifetime")
	fmt.Fprintln(w, "# resent: frames the leader re-shipped after loss (shipped = acked + resent at quiesce)")
	fmt.Fprintln(w, "# promote_ms: lease expiry to hand-off complete (recover + fence + re-assert); wall clock, varies run to run")
	return nil
}

// haTEPeriod is the recovery bound the failover and georep sweeps report
// each promotion against.
const haTEPeriod = 10 * time.Second

// haCell is one failover trace of the failover and georep sweeps.
type haCell struct {
	sites    int
	crashRPC int64   // -1: clean death between epochs; N: killed after N RPCs of the next epoch
	drop     float64 // per-frame loss on the replication stream to site 1
	retain   int     // leader-side replication buffer in records (0 = persist's default)
	epochs   int     // healthy epochs before the leader dies
	ticks    int     // replication ticks per healthy epoch
}

type haCellResult struct {
	promoted    int
	detectTicks int
	resyncs     int64
	resent      int64
	planAvail   bool
	mirrorMatch bool
	promote     time.Duration
}

// within renders whether the promotion landed inside one TE period.
func (r haCellResult) within() string {
	if r.promote >= haTEPeriod {
		return "NO"
	}
	return "yes"
}

// runHACell runs one failover trace: the healthy epochs replicate to every
// site through the cell's loss and retention, the leader dies at the
// cell's crash point (its lease endpoint with it), and the site set ticks
// until a site promotes; the adopted lineage then completes one epoch.
func runHACell(opts Options, c haCell) (haCellResult, error) {
	cfg := wan.SwitchConfig{
		InstallLatency: 3 * time.Millisecond,
		RateLatency:    300 * time.Microsecond,
		MaxTunnels:     20000,
	}
	reg := obs.NewRegistry()
	ct := fault.NewCtlCrash(wan.TCPTransport{}, 0, reg)
	ct.Disarm()
	tb, err := wan.NewTestbedTransport(cfg, func(f optical.Features) float64 { return 0.8 }, ct)
	if err != nil {
		return haCellResult{}, err
	}
	defer tb.Close()
	tb.SolveUnits = opts.Budget
	tb.Ctl.Metrics = reg
	dir, err := os.MkdirTemp("", "prete-ha-*")
	if err != nil {
		return haCellResult{}, err
	}
	defer os.RemoveAll(dir)
	if _, err := tb.OpenState(dir); err != nil {
		return haCellResult{}, err
	}
	lease, err := wan.NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		return haCellResult{}, err
	}
	defer lease.Close()
	agents := make(map[string]string, len(tb.Agents))
	for _, a := range tb.Agents {
		agents[a.Name] = a.Addr()
	}
	ss, err := wan.NewSiteSet(dir, filepath.Join(dir, "sites"), lease.Addr(), agents, wan.SiteOptions{
		Sites:            c.sites,
		LeaseTicks:       3,
		HeartbeatTimeout: 100 * time.Millisecond,
		RetainRecords:    c.retain,
		Ship: func(id int) wan.Transport {
			if id != 1 || c.drop == 0 {
				return wan.TCPTransport{}
			}
			inj, ierr := fault.NewInjector(fault.Spec{Seed: opts.Seed, Drop: c.drop}, reg)
			if ierr != nil {
				return wan.TCPTransport{}
			}
			return fault.NewTransport(wan.TCPTransport{}, inj)
		},
		Retry:   wan.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.5},
		Metrics: reg,
	})
	if err != nil {
		return haCellResult{}, err
	}
	defer ss.Close()

	// Healthy epochs replicate to every site. Several ticks per epoch model
	// a TE period spanning multiple replication rounds — a dropped frame is
	// retried within the same epoch, not a whole period later; a lossy
	// stream with a tight retention forces site 1 through the snapshot
	// re-sync path while the leader is still healthy.
	for e := 0; e < c.epochs; e++ {
		if _, err := tb.RunScenario(opts.Seed); err != nil {
			return haCellResult{}, fmt.Errorf("ha epoch %d: %w", e+1, err)
		}
		for i := 0; i < c.ticks; i++ {
			if p, err := ss.Tick(); err != nil || p != nil {
				return haCellResult{}, fmt.Errorf("ha healthy tick: promotion=%v err=%v", p, err)
			}
		}
	}
	// Leader death at the cell's crash point; the lease endpoint dies with
	// the process, so detection is purely lease expiry.
	if c.crashRPC >= 0 {
		ct.Arm(c.crashRPC)
		if _, err := tb.RunScenario(opts.Seed); err == nil {
			return haCellResult{}, fmt.Errorf("ha: crash after %d RPCs did not halt the epoch", c.crashRPC)
		}
	}
	lease.Close()
	if err := tb.Ctl.ReleaseState(); err != nil {
		return haCellResult{}, err
	}
	var res haCellResult
	var prom *wan.SitePromotion
	for prom == nil {
		if res.detectTicks++; res.detectTicks > 16 {
			return haCellResult{}, errors.New("ha: no promotion within 16 ticks")
		}
		prom, err = ss.Tick()
		if err != nil && !errors.Is(err, wan.ErrClaimFenced) {
			return haCellResult{}, err
		}
	}
	res.promoted = prom.SiteID
	res.resyncs = prom.Resyncs
	res.mirrorMatch = prom.MirrorMatch
	res.promote = prom.Elapsed
	res.planAvail = prom.Ctl.LastGoodRates() != nil
	res.resent = ss.ReplStats().Resent
	zombie := tb.AdoptPromoted(prom.Ctl)
	defer zombie.Close()
	// The adopted lineage completes the next epoch.
	if _, err := tb.RunScenario(opts.Seed); err != nil {
		return haCellResult{}, fmt.Errorf("ha post-promotion epoch: %w", err)
	}
	if opts.Metrics != nil {
		for _, name := range []string{
			"wan.georep.ticks", "wan.georep.heartbeats", "wan.georep.misses",
			"wan.georep.elections", "wan.georep.site_resyncs", "wan.georep.resync_requests",
			"wan.failover.promotions", "wan.failover.reasserts",
			"wan.failover.mirror_match", "wan.failover.mirror_mismatch",
			"persist.repl.shipped", "persist.repl.acked", "persist.repl.resent",
			"persist.repl.resyncs", "persist.tail.polls", "persist.tail.records",
			"persist.tail.dead_files",
		} {
			opts.Metrics.Counter(name).Add(reg.Counter(name).Value())
		}
	}
	return res, nil
}
