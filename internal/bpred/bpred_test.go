package bpred

import (
	"reflect"
	"testing"

	"svwsim/internal/isa"
)

func newP() *Predictor { return New(DefaultConfig()) }

func TestBimodalLearnsBiasedBranch(t *testing.T) {
	p := newP()
	pc := uint64(0x1000)
	inst := isa.Inst{Op: isa.OpBne, Ra: 1, Imm: 4}
	target := inst.BranchTarget(pc)
	miss := 0
	for i := 0; i < 100; i++ {
		out := p.Lookup(pc, inst, true, target)
		if out.DirMispredict {
			miss++
		}
	}
	if miss > 3 {
		t.Errorf("always-taken branch mispredicted %d/100 times", miss)
	}
}

func TestAlternatingPatternLearnedByGshare(t *testing.T) {
	p := newP()
	pc := uint64(0x2000)
	inst := isa.Inst{Op: isa.OpBeq, Ra: 1, Imm: 4}
	target := inst.BranchTarget(pc)
	miss := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		out := p.Lookup(pc, inst, taken, target)
		if i >= 200 && out.DirMispredict {
			miss++
		}
	}
	// Global history disambiguates a strict alternation.
	if miss > 20 {
		t.Errorf("alternating branch mispredicted %d/200 after warmup", miss)
	}
}

func TestBTBMissThenHit(t *testing.T) {
	p := newP()
	pc := uint64(0x3000)
	inst := isa.Inst{Op: isa.OpBr, Imm: 16}
	target := inst.BranchTarget(pc)
	out := p.Lookup(pc, inst, true, target)
	if !out.BTBMiss {
		t.Error("first sighting should miss the BTB")
	}
	out = p.Lookup(pc, inst, true, target)
	if out.BTBMiss {
		t.Error("second sighting should hit the BTB")
	}
}

func TestReturnAddressStack(t *testing.T) {
	p := newP()
	call := isa.Inst{Op: isa.OpBsr, Rd: 28, Imm: 100}
	ret := isa.Inst{Op: isa.OpJmp, Rd: isa.Zero, Ra: 28}
	// Nested calls return in LIFO order.
	p.Lookup(0x100, call, true, call.BranchTarget(0x100))
	p.Lookup(0x200, call, true, call.BranchTarget(0x200))
	out := p.Lookup(0x900, ret, true, 0x204)
	if out.TargetMispredict || out.BTBMiss {
		t.Errorf("inner return mispredicted: %+v", out)
	}
	out = p.Lookup(0x910, ret, true, 0x104)
	if out.TargetMispredict || out.BTBMiss {
		t.Errorf("outer return mispredicted: %+v", out)
	}
	// A return to somewhere else is a target mispredict.
	p.Lookup(0x100, call, true, call.BranchTarget(0x100))
	out = p.Lookup(0x920, ret, true, 0xDEAD)
	if !out.TargetMispredict {
		t.Error("wrong return target should mispredict")
	}
}

func TestIndirectJumpUsesBTB(t *testing.T) {
	p := newP()
	jmp := isa.Inst{Op: isa.OpJmp, Rd: 28, Ra: 4} // linking: not a return
	out := p.Lookup(0x4000, jmp, true, 0x8888)
	if !out.BTBMiss {
		t.Error("first indirect should BTB-miss")
	}
	out = p.Lookup(0x4000, jmp, true, 0x8888)
	if out.BTBMiss || out.TargetMispredict {
		t.Errorf("trained indirect: %+v", out)
	}
	out = p.Lookup(0x4000, jmp, true, 0x9999)
	if !out.TargetMispredict {
		t.Error("changed indirect target should mispredict")
	}
}

func TestAccuracyAccounting(t *testing.T) {
	p := newP()
	inst := isa.Inst{Op: isa.OpBne, Ra: 1, Imm: 4}
	for i := 0; i < 10; i++ {
		p.Lookup(0x5000, inst, true, inst.BranchTarget(0x5000))
	}
	if p.Branches != 10 {
		t.Errorf("branches = %d", p.Branches)
	}
	if a := p.Accuracy(); a < 0.5 || a > 1 {
		t.Errorf("accuracy = %f", a)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBSets = 2
	cfg.BTBWays = 1
	p := New(cfg)
	br := isa.Inst{Op: isa.OpBr, Imm: 8}
	// Same set (stride = sets*4), single way: the second evicts the first.
	p.Lookup(0x1000, br, true, br.BranchTarget(0x1000))
	p.Lookup(0x1000+8, br, true, br.BranchTarget(0x1000+8))
	out := p.Lookup(0x1000, br, true, br.BranchTarget(0x1000))
	if !out.BTBMiss {
		t.Error("evicted entry should miss")
	}
}

// TestResetMatchesNew: a trained predictor, Reset, is deep-equal to a new
// one -- counters, history, BTB, RAS and statistics.
func TestResetMatchesNew(t *testing.T) {
	p := newP()
	br := isa.Inst{Op: isa.OpBne, Ra: 1, Imm: 4}
	call := isa.Inst{Op: isa.OpBsr, Ra: 26, Imm: 64}
	for i := uint64(0); i < 3000; i++ {
		pc := 0x1000 + 4*(i%97)
		p.Lookup(pc, br, i%3 == 0, br.BranchTarget(pc))
		p.Lookup(pc+0x800, call, true, call.BranchTarget(pc+0x800))
	}
	if p.Branches == 0 || p.rasTop == 0 {
		t.Fatal("training left the predictor cold; the test is vacuous")
	}
	p.Reset()
	if !reflect.DeepEqual(p, newP()) {
		t.Fatal("Reset predictor differs from a new one")
	}
}
