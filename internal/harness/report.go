package harness

import (
	"fmt"
	"strings"
)

// Table2 renders the per-benchmark event counts in the layout of the
// paper's Table 2: for both implementations the intercepted native methods
// and output commits, then the lock-replication rows (logged messages, locks
// acquired, objects locked, largest l_asn) and the thread-scheduling rows
// (logged messages, reschedules).
func Table2(results []*BenchResult) string {
	var sb strings.Builder
	names := make([]string, len(results))
	for i, r := range results {
		names[i] = r.Name
	}
	w := colWidths(names)

	writeRow := func(impl, event string, vals []uint64) {
		fmt.Fprintf(&sb, "%-28s %-22s", impl, event)
		for i, v := range vals {
			fmt.Fprintf(&sb, " %*d", w[i], v)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-28s %-22s", "Implementation", "Event Intercepted")
	for i, n := range names {
		fmt.Fprintf(&sb, " %*s", w[i], n)
	}
	sb.WriteByte('\n')

	get := func(f func(*BenchResult) uint64) []uint64 {
		out := make([]uint64, len(results))
		for i, r := range results {
			out[i] = f(r)
		}
		return out
	}

	writeRow("Both", "NM", get(func(r *BenchResult) uint64 { return r.Lock.PrimaryStats.NMIntercepted }))
	writeRow("", "NM Output Commits", get(func(r *BenchResult) uint64 { return r.Lock.PrimaryStats.NMOutputCommits }))
	writeRow("Replicated Lock Acq.", "Logged Messages", get(func(r *BenchResult) uint64 { return r.Lock.Metrics.RecordsLogged }))
	writeRow("", "Locks Acquired", get(func(r *BenchResult) uint64 { return r.Lock.PrimaryStats.LocksAcquired }))
	writeRow("", "Objects Locked", get(func(r *BenchResult) uint64 { return r.Lock.PrimaryStats.ObjectsLocked }))
	writeRow("", "Largest l_asn", get(func(r *BenchResult) uint64 { return r.Lock.PrimaryStats.LargestLASN }))
	writeRow("Replicated Thread Sched.", "Logged Messages", get(func(r *BenchResult) uint64 { return r.Sched.Metrics.RecordsLogged }))
	writeRow("", "Sched. Records", get(func(r *BenchResult) uint64 { return r.Sched.Metrics.SwitchRecords }))
	writeRow("", "Reschedules", get(func(r *BenchResult) uint64 { return r.Sched.PrimaryStats.Reschedules }))
	return sb.String()
}

func colWidths(names []string) []int {
	w := make([]int, len(names))
	for i, n := range names {
		w[i] = len(n)
		if w[i] < 9 {
			w[i] = 9
		}
	}
	return w
}

// Figure2 renders the normalized execution times (TS primary/backup, Lock
// primary/backup) per benchmark, as text bars. Each primary column is printed
// twice: as measured on the raw pipe, and with the modelled link (+link).
func Figure2(results []*BenchResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: execution time normalized to the unreplicated VM\n")
	sb.WriteString(fmt.Sprintf("%-10s %12s %8s %12s %12s %8s %12s   (baseline)\n",
		"benchmark", "TS primary", "+link", "TS backup", "Lock primary", "+link", "Lock backup"))
	for _, r := range results {
		lockP, lockB, tsP, tsB := r.Normalized()
		sb.WriteString(fmt.Sprintf("%-10s %12.2f %8.2f %12.2f %12.2f %8.2f %12.2f   (%s)\n",
			r.Name, tsP, r.norm(r.Sched.linked()), tsB, lockP, r.norm(r.Lock.linked()), lockB, r.Baseline.Round(1_000_000)))
	}
	sb.WriteString("\n")
	for _, r := range results {
		lockP, lockB, tsP, tsB := r.Normalized()
		sb.WriteString(fmt.Sprintf("%-10s TSp   %s\n", r.Name, bar(tsP)))
		sb.WriteString(fmt.Sprintf("%-10s +link %s\n", "", bar(r.norm(r.Sched.linked()))))
		sb.WriteString(fmt.Sprintf("%-10s TSb   %s\n", "", bar(tsB)))
		sb.WriteString(fmt.Sprintf("%-10s Lkp   %s\n", "", bar(lockP)))
		sb.WriteString(fmt.Sprintf("%-10s +link %s\n", "", bar(r.norm(r.Lock.linked()))))
		sb.WriteString(fmt.Sprintf("%-10s Lkb   %s\n", "", bar(lockB)))
	}
	return sb.String()
}

// Figure3 renders the lock-replication overhead decomposition.
func Figure3(results []*BenchResult) string {
	return figureBreakdown(results, true)
}

// Figure4 renders the thread-scheduling overhead decomposition.
func Figure4(results []*BenchResult) string {
	return figureBreakdown(results, false)
}

func figureBreakdown(results []*BenchResult, lockMode bool) string {
	var sb strings.Builder
	recordLabel := "Lock Acquire"
	title := "Figure 3: normalized overhead, replicated lock acquisition"
	if !lockMode {
		recordLabel = "Rescheduling"
		title = "Figure 4: normalized overhead, replicated thread scheduling"
	}
	sb.WriteString(title + "\n")
	sb.WriteString(fmt.Sprintf("%-10s %9s %14s %12s %9s %9s\n",
		"benchmark", "Comm.", recordLabel, "Pessimistic", "Misc", "Total"))
	for _, r := range results {
		m := r.Lock
		if !lockMode {
			m = r.Sched
		}
		ov := m.Decompose(r.Baseline)
		total := 1 + ov.Communication + ov.Record + ov.Pessimism + ov.Misc
		sb.WriteString(fmt.Sprintf("%-10s %8.0f%% %13.0f%% %11.0f%% %8.0f%% %8.2fx\n",
			r.Name, ov.Communication*100, ov.Record*100, ov.Pessimism*100, ov.Misc*100, total))
	}
	return sb.String()
}

func bar(x float64) string {
	n := int(x*12 + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 90 {
		n = 90
	}
	return strings.Repeat("#", n) + fmt.Sprintf(" %.2f", x)
}

// Summary reports the headline numbers the paper quotes in §5: the average
// overhead of each technique across the suite, with the modelled link (the
// paper's numbers include its network).
func Summary(results []*BenchResult) string {
	var lockSum, schedSum float64
	for _, r := range results {
		lockSum += r.norm(r.Lock.linked()) - 1
		schedSum += r.norm(r.Sched.linked()) - 1
	}
	n := float64(len(results))
	if n == 0 {
		return "no results"
	}
	return fmt.Sprintf(
		"Average overhead across %d benchmarks, modelled link: replicated lock acquisition %.0f%%, replicated thread scheduling %.0f%%\n(paper: 140%% and 60%%)",
		len(results), lockSum/n*100, schedSum/n*100)
}
