package bench

import (
	"reflect"
	"strings"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/refine"
)

// The parallel pipeline must agree with the serial §6 campaign: same
// function count, same refuted count, independent of worker count.
func TestPipelineMatchesSerial(t *testing.T) {
	serial := MeasurePipeline(true, 1, 0, 1, true, false, true, nil)
	if serial.Funcs == 0 {
		t.Fatal("pipeline validated no functions")
	}
	if serial.Refuted != 0 {
		t.Errorf("fixed passes refuted %d functions", serial.Refuted)
	}
	parallel := MeasurePipeline(true, 1, 0, 4, true, false, true, nil)
	if parallel.Funcs != serial.Funcs || parallel.Refuted != serial.Refuted {
		t.Errorf("workers=4 (%d funcs, %d refuted) diverges from serial (%d funcs, %d refuted)",
			parallel.Funcs, parallel.Refuted, serial.Funcs, serial.Refuted)
	}
	if serial.MemoLookups == 0 || serial.HitRate <= 0 {
		t.Errorf("memo ineffective: %d lookups, %.2f hit rate", serial.MemoLookups, serial.HitRate)
	}

	var sb strings.Builder
	ReportPipeline(&sb, "test", []PipelineResult{serial, parallel})
	if !strings.Contains(sb.String(), "checks/sec") {
		t.Errorf("report incomplete:\n%s", sb.String())
	}
}

// ValidateParallel over the full space must reproduce the serial E3
// table exactly — rows, verdicts, and first counterexamples — while
// hitting the memo on the repeated targets.
func TestValidateParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("validation is slow")
	}
	for _, fixed := range []bool{true, false} {
		serial := Validate(fixed, 1, 0, nil)
		rows, st := ValidateParallel(fixed, 1, 0, 4, nil)
		if !reflect.DeepEqual(serial, rows) {
			t.Errorf("fixed=%v: parallel rows diverge\nserial:   %+v\nparallel: %+v",
				fixed, serial, rows)
		}
		if st.HitRate() < 0.5 {
			t.Errorf("fixed=%v: multi-pass hit rate %.1f%%, want >50%%: the passes' targets should repeat across candidates",
				fixed, 100*st.HitRate())
		}
	}
}

// benchPair is a representative Check workload: a real InstCombine
// rewrite over i2 with full input-space enumeration.
var benchSrc = ir.MustParseFunc(`define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`)

var benchTgt = ir.MustParseFunc(`define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`)

func BenchmarkRefineCheck(b *testing.B) {
	cfg := refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	b.Run("nomemo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refine.Check(benchSrc, benchTgt, cfg)
		}
	})
	b.Run("memo", func(b *testing.B) {
		mcfg := cfg
		mcfg.Memo = refine.NewMemo(0)
		for i := 0; i < b.N; i++ {
			refine.Check(benchSrc, benchTgt, mcfg)
		}
	})
	b.Run("oracle-reuse", func(b *testing.B) {
		ocfg := cfg
		ocfg.Oracle = core.NewEnumOracle(ocfg.MaxChoices, ocfg.MaxFanout)
		for i := 0; i < b.N; i++ {
			refine.Check(benchSrc, benchTgt, ocfg)
		}
	})
}

func BenchmarkExhaustive(b *testing.B) {
	cfg := optfuzz.DefaultConfig(2)
	cfg.MaxFuncs = 2000
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optfuzz.Exhaustive(cfg, func(*ir.Func) bool { return true })
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < optfuzz.NumShards(cfg); s++ {
				optfuzz.ExhaustiveShard(cfg, s, func(*ir.Func) bool { return true })
			}
		}
	})
}

// BenchmarkCampaign is the end-to-end number the tentpole targets:
// checks per second through generate → transform → Check.
func BenchmarkCampaign(b *testing.B) {
	for _, tc := range []struct {
		name      string
		workers   int
		memo      bool
		multiPass bool
	}{
		{"o2/workers=1/memo=off", 1, false, false},
		{"o2/workers=1/memo=on", 1, true, false},
		{"5pass/workers=1/memo=off", 1, false, true},
		{"5pass/workers=1/memo=on", 1, true, true},
		{"5pass/workers=4/memo=on", 4, true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := MeasurePipeline(true, 1, 0, tc.workers, tc.memo, tc.multiPass, true, nil)
				b.ReportMetric(r.ChecksPerSec, "checks/sec")
			}
		})
	}
}
