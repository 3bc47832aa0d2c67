// tame-opt runs optimizer passes over textual IR, like LLVM's opt.
//
// Usage:
//
//	tame-opt [-sem legacy|freeze] [-passes p1,p2,...|O2] [-unsound]
//	         [-verify-each] [-time-passes] [-stats] [-print-changed] [file]
//
// Reads the module from file (or stdin), runs the passes, prints the
// transformed module. -passes O2 runs the standard pipeline to fixed
// point; an explicit list runs each pass once, in order. Instrumentation
// (-time-passes, -stats, -print-changed) goes to stderr so the IR on
// stdout stays pipeable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
)

func main() {
	sem := flag.String("sem", "freeze", "semantics: legacy or freeze")
	passList := flag.String("passes", "O2", "comma-separated pass names, or O2")
	unsound := flag.Bool("unsound", false, "use the historical (pre-paper) pass variants")
	verify := flag.Bool("verify", true, "verify IR after every pass")
	verifyEach := flag.Bool("verify-each", false, "run the full checker battery after every pass: IR verifier, SSA dominance, analysis cache coherence")
	timePasses := flag.Bool("time-passes", false, "report per-pass wall time to stderr")
	stats := flag.Bool("stats", false, "report per-pass change counts and analysis-cache counters to stderr")
	printChanged := flag.Bool("print-changed", false, "dump IR to stderr after every pass that changed it")
	metricsPath := flag.String("metrics", "", "write the pass-manager metric snapshot to this file ('-' = text on stdout, *.json = JSON)")
	flag.Parse()

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}
	mod, err := ir.ParseModule(string(src))
	if err != nil {
		fatal(err)
	}

	cfg := &passes.Config{Unsound: *unsound, VerifyAfterEach: *verify, FreezeAware: true}
	switch *sem {
	case "freeze":
		cfg.Sem = core.FreezeOptions()
	case "legacy":
		cfg.Sem = core.LegacyOptions(core.BranchPoisonNondet)
	default:
		fatal(fmt.Errorf("unknown semantics %q", *sem))
	}
	if err := ir.VerifyModule(mod, verifyMode(cfg)); err != nil {
		fatal(err)
	}

	var pm *passes.PassManager
	fixpoint := *passList == "O2"
	if fixpoint {
		pm = passes.O2()
	} else {
		var names []string
		for _, name := range strings.Split(*passList, ",") {
			names = append(names, strings.TrimSpace(name))
		}
		pm, err = passes.NewPassManager(names...)
		if err != nil {
			fatal(err)
		}
	}
	pm.VerifyEach = *verifyEach
	if *timePasses || *stats || *metricsPath != "" || *verifyEach {
		// -verify-each instruments too, so the checks/failures counters
		// land in the snapshot even without -stats.
		pm.Instrument()
	}
	if *timePasses {
		pm.TimePasses() // per-pass spans: the only per-pass clock
	}
	if *printChanged {
		pm.PrintChanged = os.Stderr
	}

	if fixpoint {
		pm.Run(mod, cfg)
	} else {
		// An explicit list keeps the historical single-sweep,
		// pass-major semantics: every function sees pass k before any
		// function sees pass k+1.
		pm.RunOnce(mod, cfg)
	}
	fmt.Print(mod)
	pm.Stats.Emit(os.Stderr, *timePasses, *stats)
	if *metricsPath != "" {
		if err := pm.Stats.Registry().Snapshot().WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
}

func verifyMode(cfg *passes.Config) ir.VerifyMode {
	if cfg.Sem.Mode == core.Freeze {
		return ir.VerifyFreeze
	}
	return ir.VerifyLegacy
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-opt:", err)
	os.Exit(1)
}
