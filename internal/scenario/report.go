package scenario

import (
	"fmt"
	"io"

	"repro/internal/faults"
)

// WriteReport renders the chaos report. Every quantity derives from the
// deterministic simulation, so the same scenario, seed and duration
// produce byte-identical output — the property the regression suite
// pins.
func (r *Result) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "=== chaos scenario: %s ===\n", r.Spec.Name)
	fmt.Fprintf(w, "%s\n", r.Spec.Description)
	fmt.Fprintf(w, "detector=%s duration=%v seed=0x%X\n", r.Detector, r.Duration, r.Spec.Seed)

	fmt.Fprintln(w, "\nschedule:")
	for _, f := range r.Spec.Faults {
		fmt.Fprintf(w, "  %s\n", f)
	}

	fmt.Fprintln(w, "\ninjected events:")
	if len(r.Events) == 0 {
		fmt.Fprintln(w, "  (none applied)")
	}
	for _, e := range r.Events {
		fmt.Fprintf(w, "  %-10s %-34s count=%d\n", e.Kind, e.Target, e.Count)
	}

	fmt.Fprintln(w, "\nnode latency (ms), baseline vs faulted:")
	fmt.Fprintf(w, "  %-24s %9s %9s | %9s %9s | %7s %7s\n",
		"node", "base p50", "base p99", "flt p50", "flt p99", "n base", "n flt")
	for _, ns := range r.Nodes {
		fmt.Fprintf(w, "  %-24s %9.3f %9.3f | %9.3f %9.3f | %7d %7d\n",
			ns.Node, ns.Baseline.Median, ns.Baseline.P99,
			ns.Faulted.Median, ns.Faulted.P99,
			ns.Baseline.Count, ns.Faulted.Count)
	}

	fmt.Fprintln(w, "\ncomputation paths (ms), baseline vs faulted:")
	for _, ps := range r.Paths {
		fmt.Fprintf(w, "  %-24s %9.3f %9.3f | %9.3f %9.3f | %7d %7d\n",
			ps.Path, ps.Baseline.Median, ps.Baseline.P99,
			ps.Faulted.Median, ps.Faulted.P99,
			ps.Baseline.Count, ps.Faulted.Count)
	}

	fmt.Fprintln(w, "\ndegraded intervals (faulted run):")
	if len(r.Degraded) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, d := range r.Degraded {
		end := "open"
		if d.End > 0 {
			end = d.End.String()
		}
		fmt.Fprintf(w, "  %-24s policy=%-10s [%v, %s) substituted=%d\n",
			d.Node, d.Policy, d.Start, end, d.Substituted)
	}

	fmt.Fprintln(w, "\nmessage drops (faulted run):")
	if len(r.Drops) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, d := range r.Drops {
		fmt.Fprintf(w, "  %-34s -> %-24s arrived=%-6d dropped=%-6d rate=%.3f\n",
			d.Topic, d.Subscriber, d.Arrived, d.Dropped, d.Rate)
	}

	fmt.Fprintln(w, "\nsupervised outages (faulted run):")
	if len(r.Outages) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, o := range r.Outages {
		end := "open"
		if o.Recovered > 0 {
			end = o.Recovered.String()
		}
		fmt.Fprintf(w, "  %-24s cause=%-12s [%v, %s) restarts=%d lost=%d restored=%t ckpt_age=%v rechk=%t\n",
			o.Node, o.Cause, o.Detected, end,
			o.Restarts, o.FramesLost, o.Restored, o.CheckpointAge, o.Recheckpointed)
	}

	fmt.Fprintln(w, "\nfault-induced message losses (faulted run):")
	lost := false
	for _, e := range r.Events {
		if e.Kind == faults.KindDrop || e.Kind == faults.KindCrash {
			lost = true
			fmt.Fprintf(w, "  %-10s %-34s count=%-6d window=[%v, %v]\n",
				e.Kind, e.Target, e.Count, e.First, e.Last)
		}
	}
	if !lost {
		fmt.Fprintln(w, "  (none)")
	}

	shed := false
	for _, t := range r.Topics {
		if t.Shed > 0 {
			shed = true
			break
		}
	}
	fmt.Fprintln(w, "\ndeadline-shed frames (faulted run):")
	if !shed {
		fmt.Fprintln(w, "  (none)")
	}
	for _, t := range r.Topics {
		if t.Shed == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-34s shed=%-6d delivered=%-6d\n", t.Topic, t.Shed, t.Messages)
	}

	fmt.Fprintln(w, "\nintegrity quarantine (faulted run):")
	if len(r.Integrity) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, ev := range r.Integrity {
		fmt.Fprintf(w, "  %-34s cause=%-18s at=%-8s count=%-6d window=[%v, %v]\n",
			ev.Topic, ev.Cause, ev.Point, ev.Count, ev.First, ev.Last)
	}
	delivered := map[string]uint64{}
	for _, t := range r.Topics {
		delivered[t.Topic] = t.Messages
	}
	for i := 0; i < len(r.Integrity); {
		topic, quarantined := r.Integrity[i].Topic, 0
		for ; i < len(r.Integrity) && r.Integrity[i].Topic == topic; i++ {
			quarantined += r.Integrity[i].Count
		}
		fmt.Fprintf(w, "  %-34s quarantined=%-6d delivered=%-6d\n", topic, quarantined, delivered[topic])
	}
}
