package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"tameir/internal/optfuzz"
)

// Small campaigns that finish in well under a second and still refute:
// the historical unsound -O2 over the legacy dialect, exhaustively and
// by mutation with the reducer on.
var (
	smallExhaustive = campaignSpec{Source: "exhaustive", Sem: "legacy", Unsound: true, Instrs: 2, N: 2000, Seed: 1, Workers: 2}
	smallMutate     = campaignSpec{Source: "mutate", Sem: "legacy", Unsound: true, Instrs: 2, N: 12, Seed: 1, Epochs: 3, Reduce: true, Workers: 2}
)

func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	mut := wrapSource(smallMutate.build().Source, newSourceRecord(smallMutate.build().Source))
	if _, ok := mut.(optfuzz.Evolving); !ok {
		t.Error("wrapped mutation source lost Evolving: the campaign would run one epoch")
	}
	if _, ok := mut.(optfuzz.CorpusReporter); !ok {
		t.Error("wrapped mutation source lost CorpusReporter")
	}
	ex := optfuzz.NewExhaustiveSource(smallExhaustive.build().Gen)
	wex := wrapSource(ex, newSourceRecord(ex))
	if _, ok := wex.(optfuzz.Evolving); ok {
		t.Error("wrapped exhaustive source gained Evolving")
	}
}

// TestWrapperAndReplayMatchCampaign runs each small campaign bare,
// under the timing wrapper, and as a serial replay of the wrapper's
// record; all three must report the same verdicts and findings, and
// the replay's ledger must close.
func TestWrapperAndReplayMatchCampaign(t *testing.T) {
	for _, spec := range []campaignSpec{smallExhaustive, smallMutate} {
		t.Run(spec.Source, func(t *testing.T) {
			bare := spec.build().Run()
			if bare.Refuted == 0 {
				t.Fatal("campaign found nothing; the comparison would be vacuous")
			}
			want := spec.fingerprint(bare)

			c := spec.build()
			src := source(c)
			rec := newSourceRecord(src)
			c.Source = wrapSource(src, rec)
			wrapped := c.Run()
			if got := spec.fingerprint(wrapped); got != want {
				t.Fatalf("wrapped campaign differs:\n%s\nwant:\n%s", got, want)
			}
			if spec.Epochs > 0 && wrapped.Epochs != spec.Epochs {
				t.Fatalf("wrapped campaign ran %d epochs, want %d", wrapped.Epochs, spec.Epochs)
			}

			rp, err := replay(spec, rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := spec.fingerprint(rp.stats); got != want {
				t.Fatalf("replay differs:\n%s\nwant:\n%s", got, want)
			}
			if rp.ledger.other() < 0 {
				t.Fatalf("layer times exceed the replay wall: %+v", rp.ledger)
			}
			if spec.Reduce && rp.ledger.reduce == 0 {
				t.Fatal("reducer time missing from the ledger")
			}
		})
	}
}

// TestSpecMatchesTameFuzzStdout checks that campaignSpec.build
// configures the campaign exactly as tame-fuzz does for the same
// flags, by comparing the CLI's stdout with the spec's rendering.
func TestSpecMatchesTameFuzzStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tame-fuzz")
	}
	bin := filepath.Join(t.TempDir(), "tame-fuzz")
	if out, err := exec.Command("go", "build", "-o", bin, "tameir/cmd/tame-fuzz").CombinedOutput(); err != nil {
		t.Fatalf("build tame-fuzz: %v\n%s", err, out)
	}
	for _, spec := range []campaignSpec{smallExhaustive, smallMutate} {
		cmd := exec.Command(bin, spec.flags()...)
		out, err := cmd.Output()
		// tame-fuzz exits 1 when it refutes something.
		if ee, ok := err.(*exec.ExitError); err != nil && !(ok && ee.ExitCode() == 1) {
			t.Fatalf("tame-fuzz %v: %v", spec.flags(), err)
		}
		if want := spec.stdout(spec.build().Run()); string(out) != want {
			t.Errorf("tame-fuzz %v stdout differs from the benchmark's campaign:\n%s\nwant:\n%s", spec.flags(), out, want)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		defs  []def
		units map[string]string
	}{{bj.EndToEnd, endToEndUnits}, {bj.PerLayer, perLayerUnits}} {
		if len(c.defs) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.defs), len(c.units))
		}
		for _, d := range c.defs {
			if u, ok := c.units[d.Name]; !ok || u != d.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, benchmark unit %q", d.Name, d.Unit, u)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tailPercentile(xs); p != 99 || v != 990 {
		t.Errorf("1000 samples: got p%v = %v, want p99 = 990", p, v)
	}
	if p, _ := tailPercentile(xs[:15]); p != 50 {
		t.Errorf("15 samples: got p%v, want p50", p)
	}
}
