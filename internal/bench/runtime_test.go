package bench

import (
	"strings"
	"testing"

	"tameir/internal/target"
)

// pinnedCounts are the simulated instructions and cycles, checksum and
// encoded size of every Programs entry under both variants: the
// numbers Figure 6 (E7) is built from. Only a change to code
// generation or to the cycle model may move them; a change to how the
// simulator runs must leave every one as it is.
var pinnedCounts = []struct {
	variant, program string
	instrs, cycles   uint64
	checksum         int32
	size             uint32
}{
	{"baseline", "perlbench", 265369, 358264, 8182, 1088},
	{"baseline", "bzip2", 1010688, 1368492, 20021, 864},
	{"baseline", "gcc", 242790, 348081, 27602, 1600},
	{"baseline", "mcf", 70529, 97204, 620, 1264},
	{"baseline", "gobmk", 302745, 402191, 3072, 992},
	{"baseline", "hmmer", 1173910, 1629408, 42544, 880},
	{"baseline", "sjeng", 91425, 148093, 2829, 768},
	{"baseline", "libquantum", 173190, 205867, 98416, 608},
	{"baseline", "h264ref", 263107, 360732, 318912, 1152},
	{"baseline", "omnetpp", 25226, 43778, 25885, 2208},
	{"baseline", "astar", 1068216, 1299087, 1583, 1600},
	{"baseline", "xalancbmk", 195809, 313789, 24580, 1136},
	{"baseline", "milc", 968048, 1312507, 191353, 1200},
	{"baseline", "namd", 671578, 1095475, 7216, 1280},
	{"baseline", "dealII", 1695725, 2505362, 48181, 944},
	{"baseline", "soplex", 31143, 43446, 817998, 1328},
	{"baseline", "povray", 96778, 155936, 27472, 1008},
	{"baseline", "lbm", 481391, 970196, 146436, 976},
	{"baseline", "sphinx3", 952761, 1486598, 65173, 1040},
	{"baseline", "queens", 5301646, 8591235, 73784, 720},
	{"baseline", "nestedloop", 50820368, 50824165, 2097152, 608},
	{"baseline", "sieve", 622659, 676420, 1029, 320},
	{"baseline", "ackermann", 59241, 120704, 502, 384},
	{"baseline", "matmul", 202601, 256910, 48575, 672},
	{"baseline", "bitfields", 54291, 83988, 24320, 848},
	{"prototype", "perlbench", 265369, 358264, 8182, 1088},
	{"prototype", "bzip2", 1010688, 1368492, 20021, 864},
	{"prototype", "gcc", 245622, 350913, 27602, 1600},
	{"prototype", "mcf", 70529, 97204, 620, 1264},
	{"prototype", "gobmk", 302745, 402191, 3072, 992},
	{"prototype", "hmmer", 1173910, 1629408, 42544, 880},
	{"prototype", "sjeng", 91425, 148093, 2829, 768},
	{"prototype", "libquantum", 173190, 205867, 98416, 608},
	{"prototype", "h264ref", 263107, 360732, 318912, 1152},
	{"prototype", "omnetpp", 25226, 43778, 25885, 2208},
	{"prototype", "astar", 1068216, 1299087, 1583, 1600},
	{"prototype", "xalancbmk", 195809, 313789, 24580, 1136},
	{"prototype", "milc", 968048, 1312507, 191353, 1200},
	{"prototype", "namd", 671578, 1095475, 7216, 1280},
	{"prototype", "dealII", 1695725, 2505362, 48181, 944},
	{"prototype", "soplex", 31143, 43446, 817998, 1328},
	{"prototype", "povray", 96778, 155936, 27472, 1008},
	{"prototype", "lbm", 481391, 970196, 146436, 976},
	{"prototype", "sphinx3", 952761, 1486598, 65173, 1040},
	{"prototype", "queens", 5301646, 8591235, 73784, 720},
	{"prototype", "nestedloop", 50820368, 50824165, 2097152, 608},
	{"prototype", "sieve", 622659, 676420, 1029, 320},
	{"prototype", "ackermann", 59241, 120704, 502, 384},
	{"prototype", "matmul", 202601, 256910, 48575, 672},
	{"prototype", "bitfields", 55347, 85044, 24320, 848},
}

func TestPinnedCounts(t *testing.T) {
	variants := map[string]Variant{"baseline": Baseline(), "prototype": Prototype()}
	programs := map[string]Program{}
	for _, p := range Programs {
		programs[p.Name] = p
	}
	if len(pinnedCounts) != 2*len(Programs) {
		t.Errorf("%d pinned rows for %d programs under 2 variants", len(pinnedCounts), len(Programs))
	}
	for _, c := range pinnedCounts {
		p, ok := programs[c.program]
		if !ok {
			t.Errorf("no program %s", c.program)
			continue
		}
		_, prog, err := Compile(p, variants[c.variant])
		if err != nil {
			t.Errorf("[%s] %v", c.variant, err)
			continue
		}
		m := target.NewMachine(prog)
		ret, err := m.Run(prog.FuncByName("main"))
		if err != nil {
			t.Errorf("[%s] %s: %v", c.variant, c.program, err)
			continue
		}
		sum, size := int32(uint32(ret)), target.ProgramSize(prog)
		if m.Instrs != c.instrs || m.Cycles != c.cycles || sum != c.checksum || size != c.size {
			t.Errorf("[%s] %s: instrs %d, cycles %d, checksum %d, size %d; want %d, %d, %d, %d",
				c.variant, c.program, m.Instrs, m.Cycles, sum, size, c.instrs, c.cycles, c.checksum, c.size)
		}
	}
}

// BenchmarkSimulator times the VX64 simulator alone on the programs
// that execute the most instructions: each is compiled once, then run
// b.N times on a fresh machine. ns/instr is wall time per simulated
// instruction.
func BenchmarkSimulator(b *testing.B) {
	for _, name := range []string{"nestedloop", "queens", "dealII"} {
		b.Run(name, func(b *testing.B) {
			var p Program
			for _, q := range Programs {
				if q.Name == name {
					p = q
				}
			}
			_, prog, err := Compile(p, Prototype())
			if err != nil {
				b.Fatal(err)
			}
			main := prog.FuncByName("main")
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := target.NewMachine(prog)
				if _, err := m.Run(main); err != nil {
					b.Fatal(err)
				}
				instrs += m.Instrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// E7 flags a wrong checksum with the program's reference checksum as
// want=, and a simulator error ahead of it.
func TestReportFlagsFailures(t *testing.T) {
	row := func(variant string, sum int32, simErr string) Measurement {
		return Measurement{Program: "queens", Suite: "LNT", Variant: variant, Checksum: sum, Want: 92,
			ChecksumOK: sum == 92 && simErr == "", SimError: simErr}
	}
	for _, c := range []struct {
		base, proto Measurement
		status      string
	}{
		{row("baseline", 92, ""), row("prototype", 92, ""), " ok\n"},
		{row("baseline", 92, ""), row("prototype", 7, ""), " MISMATCH base=92 proto=7 want=92\n"},
		{row("baseline", 5, ""), row("prototype", 92, ""), " MISMATCH base=5 proto=92 want=92\n"},
		{row("baseline", 92, ""), row("prototype", 0, "vx64: load fault at 0x0"), " SIM ERROR vx64: load fault at 0x0\n"},
	} {
		var sb strings.Builder
		Report(&sb, []Measurement{c.base}, []Measurement{c.proto})
		if !strings.Contains(sb.String(), c.status) {
			t.Errorf("E7 row does not end in %q:\n%s", c.status, sb.String())
		}
	}
}
