package relcheck

import (
	"fmt"
	"io"
	"strings"
)

// Report rendering, nccheck-style: a banner, the universe stats, one line
// per check with PASS/skip/FAIL, indented VIOLATION witnesses, and a final
// SOUND/UNSOUND verdict.

const reportRule = "══════════════════════════════════════════"

// Format writes the full report. With quiet set, only failing checks and
// their witnesses are written (plus the verdict line).
func (r *Report) Format(w io.Writer, quiet bool) {
	if !quiet {
		fmt.Fprintf(w, "svs-check — obsolescence relation verifier\n%s\n\n", reportRule)
		fmt.Fprintf(w, "Model:     %s\n", r.Model.Name)
		fmt.Fprintf(w, "Source:    %s\n", r.Model.Source)
		fmt.Fprintf(w, "Relation:  %s\n\n", r.Model.Rel.Name())

		total := 0
		for _, s := range r.Model.Streams {
			total += len(s.Msgs)
		}
		fmt.Fprintf(w, "Universe\n")
		fmt.Fprintf(w, "  Senders:   %d, %d messages\n", len(r.Model.Streams), total)
		fmt.Fprintf(w, "  Related:   %d ordered pairs\n", r.Related)
	}

	for _, fam := range []struct{ key, title string }{
		{"laws", "Laws (a strict partial order per sender, §3.2 and §4.2)"},
		{"confluence", "Confluence (purge ⇄ deliver)"},
	} {
		wroteTitle := false
		for _, c := range r.Checks {
			if c.Family != fam.key {
				continue
			}
			if quiet && len(c.Violations) == 0 {
				continue
			}
			if !wroteTitle {
				fmt.Fprintf(w, "\n%s\n", fam.title)
				wroteTitle = true
			}
			fmt.Fprintf(w, "  %-15s %s\n", c.Name, verdict(c))
			for _, v := range c.Violations {
				fmt.Fprintf(w, "    %s\n", v)
			}
		}
	}

	verdictLine := "Result: SOUND"
	if n := len(r.Violations()); n > 0 {
		verdictLine = fmt.Sprintf("Result: UNSOUND (%d violation%s)", n, plural(n))
	}
	if quiet {
		fmt.Fprintf(w, "%s — %s\n", verdictLine, r.Model.Name)
	} else {
		fmt.Fprintf(w, "\n%s\n%s\n", reportRule, verdictLine)
	}
}

func verdict(c CheckResult) string {
	switch {
	case c.Skipped:
		return pad("skip", c.Detail)
	case len(c.Violations) > 0:
		return pad("FAIL", c.Detail)
	default:
		unit := unitFor(c)
		detail := fmt.Sprintf("%d %s", c.Checked, unit)
		if c.Detail != "" {
			detail += ", " + c.Detail
		}
		return pad("PASS", detail)
	}
}

func unitFor(c CheckResult) string {
	switch {
	case c.Family == "confluence":
		return "interleavings"
	case c.Name == "irreflexivity":
		return "messages"
	case c.Name == "transitivity":
		return "chains"
	default:
		return "pairs"
	}
}

func pad(v, detail string) string {
	if detail == "" {
		return v
	}
	return fmt.Sprintf("%s   (%s)", v, detail)
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// Summary returns the one-line outcome, for logs and tests.
func (r *Report) Summary() string {
	var b strings.Builder
	r.Format(&b, true)
	return strings.TrimSpace(b.String())
}
