package experiments

import (
	"fmt"
	"io"
)

func init() {
	register("failover", "Replicated-controller failover sweep: detection ticks, promotion time, and plan availability vs standby-site count and crash point", failover)
}

// failover sweeps controller hand-off on clean replication streams: for
// each standby-site count and leader crash point (clean death between
// epochs, or kill -9 after N RPCs of the next epoch), a leader journals an
// epoch that ships to every site; the leader then dies, the sites' leases
// lapse, and the lowest site promotes — recovering its own replicated
// directory under a fresh fencing generation and re-asserting the
// last-good plan fleet-wide. Per cell the table reports which site won,
// how many detection ticks the election took, whether the promoted
// controller held a valid plan immediately (plan_avail), whether its
// replicated mirror matched durable truth (mirror), and the promotion wall
// time against the one-TE-period recovery bound.
func failover(w io.Writer, opts Options) error {
	siteCounts := []int{1, 2}
	crashRPCs := []int64{-1, 2} // -1 = clean death between epochs
	if opts.Quick {
		siteCounts = []int{2}
	}
	header(w, "sites", "crash_rpc", "promoted", "detect_ticks", "plan_avail", "mirror", "promote_ms", "te_period_ms", "within_period")
	for _, n := range siteCounts {
		for _, cp := range crashRPCs {
			cell, err := runHACell(opts, haCell{sites: n, crashRPC: cp, epochs: 1, ticks: 1})
			if err != nil {
				return err
			}
			crash := "clean"
			if cp >= 0 {
				crash = fmt.Sprintf("%d", cp)
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%.2f\t%.0f\t%s\n",
				n, crash, cell.promoted, cell.detectTicks, b2i(cell.planAvail), b2i(cell.mirrorMatch),
				ms(cell.promote), ms(haTEPeriod), cell.within())
		}
	}
	fmt.Fprintln(w, "# crash_rpc: clean = leader dies between epochs; N = killed after N RPCs of the next epoch (that epoch is lost)")
	fmt.Fprintln(w, "# plan_avail: the promoted controller re-asserted a journaled plan before running any epoch")
	fmt.Fprintln(w, "# mirror: the site's replicated mirror matched the durably recovered state exactly")
	fmt.Fprintln(w, "# promote_ms: lease expiry to hand-off complete (recover + fence + re-assert); wall clock, varies run to run")
	return nil
}

// b2i renders a flag as a 0/1 table cell.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
