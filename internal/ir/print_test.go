package ir

import "testing"

// TestInstrStringGolden pins the textual form of every instruction
// shape byte for byte. The printer's output is the memo's first-level
// key, so any drift here would silently change which functions share
// a memo entry.
func TestInstrStringGolden(t *testing.T) {
	a, b := NewParam("a", I8), NewParam("b", I8)
	p := NewParam("p", Ptr)
	c := NewParam("c", I1)
	v4 := Vec(2, Int(4))
	v := NewParam("v", v4)
	w := NewParam("w", I64)
	f := NewFunc("f", I8, a, b, p, c, v, w)
	entry := f.NewBlock("entry")
	other := f.NewBlock("other")
	bd := NewBuilder(entry)

	g := NewFunc("g", I8, NewParam("x", I8), NewParam("y", I8))
	h := NewFunc("h", Void)
	glob := &Global{Nam: "gl", Size: 4}

	vecConst := NewVecConst([]Value{ConstInt(Int(4), 1), ConstInt(Int(4), 15)})
	vecDeferred := NewVecConst([]Value{NewPoison(Int(4)), NewUndef(Int(4))})

	named := func(name string, in *Instr) *Instr { return bd.Named(name, in) }
	phi := named("ph", bd.Phi(I8))
	phi.AddPhiIncoming(a, entry)
	phi.AddPhiIncoming(ConstInt(I8, 0xfe), other)

	cases := []struct {
		in   *Instr
		want string
	}{
		{named("add", bd.Binop(OpAdd, NSW|NUW, a, b)), "%add = add nsw nuw i8 %a, %b"},
		{named("sub", bd.Sub(a, ConstInt(I8, 0x80))), "%sub = sub i8 %a, -128"},
		{named("udiv", bd.Binop(OpUDiv, Exact, a, ConstInt(I8, 3))), "%udiv = udiv exact i8 %a, 3"},
		{named("shl", bd.Binop(OpShl, NSW|NUW|Exact, a, b)), "%shl = shl nsw nuw exact i8 %a, %b"},
		{named("vadd", bd.Add(v, vecConst)), "%vadd = add <2 x i4> %v, <i4 1, i4 -1>"},
		{named("vxor", bd.Xor(v, vecDeferred)), "%vxor = xor <2 x i4> %v, <i4 poison, i4 undef>"},
		{named("wide", bd.Add(w, ConstInt(I64, 1<<63))), "%wide = add i64 %w, -9223372036854775808"},
		{named("wide1", bd.Add(w, ConstInt(I64, ^uint64(0)))), "%wide1 = add i64 %w, -1"},
		{named("cmp", bd.ICmp(PredSGT, a, ConstInt(I8, 0xff))), "%cmp = icmp sgt i8 %a, -1"},
		{named("ucmp", bd.ICmp(PredULE, NewUndef(I8), b)), "%ucmp = icmp ule i8 undef, %b"},
		{named("sel", bd.Select(c, a, NewPoison(I8))), "%sel = select i1 %c, i8 %a, i8 poison"},
		{named("sel1", bd.Select(ConstBool(true), ConstBool(false), c)), "%sel1 = select i1 1, i1 0, i1 %c"},
		{phi, "%ph = phi i8 [ %a, %entry ], [ -2, %other ]"},
		{named("fr", bd.Freeze(NewPoison(I8))), "%fr = freeze i8 poison"},
		{named("vfr", bd.Freeze(v)), "%vfr = freeze <2 x i4> %v"},
		{named("al", bd.Alloca(I32, ConstInt(I32, 4))), "%al = alloca i32, i32 4"},
		{named("ld", bd.Load(I32, p)), "%ld = load i32, ptr %p"},
		{bd.Store(NewUndef(I32), p), "store i32 undef, ptr %p"},
		{bd.Store(ConstInt(I8, 1), glob), "store i8 1, ptr @gl"},
		{named("gep", bd.GEP(I16, p, a)), "%gep = getelementptr i16, ptr %p, i8 %a"},
		{named("gepi", bd.GEPInbounds(I32, p, ConstInt(I32, 0xfffffffe))), "%gepi = getelementptr inbounds i32, ptr %p, i32 -2"},
		{named("zx", bd.ZExt(a, I32)), "%zx = zext i8 %a to i32"},
		{named("sx", bd.SExt(c, I8)), "%sx = sext i1 %c to i8"},
		{named("tr", bd.Trunc(w, Int(3))), "%tr = trunc i64 %w to i3"},
		{named("bc", bd.Bitcast(v, I8)), "%bc = bitcast <2 x i4> %v to i8"},
		{named("ee", bd.ExtractElement(vecDeferred, ConstInt(I32, 1))), "%ee = extractelement <2 x i4> <i4 poison, i4 undef>, i32 1"},
		{named("ie", bd.InsertElement(v, ConstInt(Int(4), 9), ConstInt(I32, 0))), "%ie = insertelement <2 x i4> %v, i4 -7, i32 0"},
		{named("call", bd.Call(g, a, ConstInt(I8, 200))), "%call = call i8 @g(i8 %a, i8 -56)"},
		{bd.Call(h), "call void @h()"},
		{bd.CondBr(c, entry, other), "br i1 %c, label %entry, label %other"},
		{bd.Br(other), "br label %other"},
		{bd.Ret(nil), "ret void"},
		{bd.Ret(a), "ret i8 %a"},
		{bd.Ret(vecConst), "ret <2 x i4> <i4 1, i4 -1>"},
		{bd.Unreachable(), "unreachable"},
		{NewInstr(Op(99), Void), "<unknown op 99>"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("got  %q\nwant %q", got, tc.want)
		}
	}
}

// TestFuncModuleStringGolden pins the function and module framing
// around the instruction lines.
func TestFuncModuleStringGolden(t *testing.T) {
	x := NewParam("x", I2)
	f := NewFunc("f", I2, x, NewParam("y", Ptr))
	bd := NewBuilder(f.NewBlock("entry"))
	bd.Named("r", bd.Binop(OpAdd, NSW, x, ConstInt(I2, 3)))
	bd.Ret(f.Entry().Instrs()[0])
	wantF := "define i2 @f(i2 %x, ptr %y) {\nentry:\n  %r = add nsw i2 %x, -1\n  ret i2 %r\n}\n"
	if got := f.String(); got != wantF {
		t.Errorf("Func.String:\ngot  %q\nwant %q", got, wantF)
	}

	v := NewFunc("v", Void)
	NewBuilder(v.NewBlock("bb")).Ret(nil)
	m := NewModule()
	m.AddGlobal(&Global{Nam: "g", Size: 3, Init: []byte{0, 7, 255}})
	m.AddGlobal(&Global{Nam: "z", Size: 8})
	m.AddFunc(f)
	m.AddFunc(v)
	wantM := "@g = global 3 init 0 7 255\n@z = global 8\n\n" + wantF + "\ndefine void @v() {\nbb:\n  ret void\n}\n"
	if got := m.String(); got != wantM {
		t.Errorf("Module.String:\ngot  %q\nwant %q", got, wantM)
	}
}

// TestFuncAppendToAllocatesNothing: rendering into a buffer with room
// to spare must not allocate, since the memo renders every checked
// function this way.
func TestFuncAppendToAllocatesNothing(t *testing.T) {
	x := NewParam("x", I2)
	y := NewParam("y", Ptr)
	f := NewFunc("f", I2, x, NewParam("v", Vec(2, Int(4))), y)
	bd := NewBuilder(f.NewBlock("entry"))
	r := bd.Named("r", bd.Binop(OpAdd, NSW, x, ConstInt(I2, 3)))
	c := bd.Named("c", bd.ICmp(PredEQ, r, NewUndef(I2)))
	s := bd.Named("s", bd.Select(c, r, NewPoison(I2)))
	bd.Store(NewVecConst([]Value{ConstInt(Int(4), 1), NewPoison(Int(4))}), y)
	bd.Ret(s)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = f.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("Func.AppendTo allocated %.0f times per call, want 0", n)
	}
}
