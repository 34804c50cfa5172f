// svs-check exhaustively verifies obsolescence relations against a finite
// model: the laws of §3.2 and §4.2 (a strict partial order relating only
// older messages of one sender to newer ones, whose listing names exactly
// what each message obsoletes) and purge/deliver confluence (over every
// interleaving, every purged message covered by a delivered one). See
// internal/relcheck and the "Verifying your relation" section of the
// README.
//
// Usage:
//
//	svs-check model.yaml [model2.yaml ...]   verify YAML model specs
//	svs-check -builtin all                   verify every built-in encoding
//	svs-check -builtin k-enumeration -k 8    one encoding, custom domain
//
// Exit status: 0 when every model is sound, 1 when any check fails (a
// minimal counterexample witness is printed), 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/relcheck"
)

func main() {
	var (
		builtin = flag.String("builtin", "", "verify a built-in encoding (empty, tagging, enumeration, k-enumeration, or all); tagging is enumeration over obsolete.NewTagTracker streams")
		senders = flag.Int("senders", 0, "domain: number of senders (default 2)")
		depth   = flag.Int("depth", 0, "domain: messages per sender (default 6)")
		tags    = flag.Int("tags", 0, "domain: distinct item tags (default 2)")
		k       = flag.Int("k", 0, "encoding parameter: k-enumeration k / enumeration and tagging window (default 4)")
		maxInt  = flag.Int("max-interleavings", 0, "confluence enumeration bound (default 2000)")
		quiet   = flag.Bool("q", false, "print only failing checks and verdicts")
	)
	flag.Parse()

	if *builtin == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "svs-check: nothing to verify; pass model YAML files or -builtin (see -h)")
		os.Exit(2)
	}

	var models []*relcheck.Model
	domain := relcheck.Domain{Senders: *senders, Depth: *depth, Tags: *tags, K: *k}
	names := []string{}
	if *builtin == "all" {
		names = relcheck.BuiltinNames()
	} else if *builtin != "" {
		names = append(names, *builtin)
	}
	for _, name := range names {
		m, err := relcheck.Builtin(name, domain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svs-check: %v\n", err)
			os.Exit(2)
		}
		models = append(models, m)
	}
	for _, path := range flag.Args() {
		m, err := relcheck.ParseYAMLFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svs-check: %v\n", err)
			os.Exit(2)
		}
		models = append(models, m)
	}

	unsound := 0
	for i, m := range models {
		if m.MaxInterleavings == 0 {
			m.MaxInterleavings = *maxInt
		}
		if i > 0 && !*quiet {
			fmt.Println()
		}
		report := relcheck.Run(m)
		report.Format(os.Stdout, *quiet)
		if !report.OK() {
			unsound++
		}
	}
	if unsound > 0 {
		os.Exit(1)
	}
}
