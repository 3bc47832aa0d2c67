package ir

import "strconv"

// The printer appends into a caller-supplied []byte instead of going
// through fmt: the function text is the refinement memo's first-level
// key, rendered once per checked function, and fmt's reflection and
// interface boxing dominated that rendering. The output is the
// canonical textual IR that Parse reads back.

// String renders the instruction in textual IR syntax (one line, no
// leading indentation).
func (in *Instr) String() string { return string(in.AppendTo(nil)) }

// String renders the function in textual IR syntax.
func (f *Func) String() string { return string(f.AppendTo(make([]byte, 0, 64*f.NumInstrs()+64))) }

// String renders the module: globals followed by functions.
func (m *Module) String() string {
	var b []byte
	for _, g := range m.Globals {
		b = append(b, '@')
		b = append(b, g.Nam...)
		b = append(b, " = global "...)
		b = strconv.AppendUint(b, uint64(g.Size), 10)
		if len(g.Init) > 0 {
			b = append(b, " init"...)
			for _, by := range g.Init {
				b = append(b, ' ')
				b = strconv.AppendUint(b, uint64(by), 10)
			}
		}
		b = append(b, '\n')
	}
	for i, f := range m.Funcs {
		if i > 0 || len(m.Globals) > 0 {
			b = append(b, '\n')
		}
		b = f.AppendTo(b)
	}
	return string(b)
}

// AppendTo appends the function's String rendering to b and returns the
// extended buffer.
func (f *Func) AppendTo(b []byte) []byte {
	b = append(b, "define "...)
	b = appendType(b, f.RetTy)
	b = append(b, " @"...)
	b = append(b, f.Nam...)
	b = append(b, '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendType(b, p.Ty)
		b = append(b, " %"...)
		b = append(b, p.Nam...)
	}
	b = append(b, ") {\n"...)
	for _, blk := range f.Blocks {
		b = append(b, blk.Nam...)
		b = append(b, ":\n"...)
		for _, in := range blk.instrs {
			b = append(b, "  "...)
			b = in.AppendTo(b)
			b = append(b, '\n')
		}
	}
	return append(b, "}\n"...)
}

// AppendTo appends the instruction's String rendering to b and returns
// the extended buffer.
func (in *Instr) AppendTo(b []byte) []byte {
	if !in.Ty.IsVoid() {
		b = append(b, '%')
		b = append(b, in.Nam...)
		b = append(b, " = "...)
	}
	switch {
	case in.Op.IsBinop():
		b = append(b, in.Op.String()...)
		b = append(b, ' ')
		b = appendAttrs(b, in.Attrs)
		b = appendTyped(b, in.Arg(0))
		b = append(b, ", "...)
		b = appendIdent(b, in.Arg(1))
	case in.Op == OpICmp:
		b = append(b, "icmp "...)
		b = append(b, in.Pred.String()...)
		b = append(b, ' ')
		b = appendTyped(b, in.Arg(0))
		b = append(b, ", "...)
		b = appendIdent(b, in.Arg(1))
	case in.Op == OpSelect:
		b = append(b, "select "...)
		b = appendTypedArgs(b, in, 3)
	case in.Op == OpPhi:
		b = append(b, "phi "...)
		b = appendType(b, in.Ty)
		b = append(b, ' ')
		for i, a := range in.args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, "[ "...)
			b = appendIdent(b, a)
			b = append(b, ", %"...)
			b = append(b, in.blocks[i].Nam...)
			b = append(b, " ]"...)
		}
	case in.Op == OpFreeze:
		b = append(b, "freeze "...)
		b = appendTyped(b, in.Arg(0))
	case in.Op == OpAlloca:
		b = append(b, "alloca "...)
		b = appendType(b, in.AllocTy)
		b = append(b, ", "...)
		b = appendTyped(b, in.Arg(0))
	case in.Op == OpLoad:
		b = append(b, "load "...)
		b = appendType(b, in.Ty)
		b = append(b, ", "...)
		b = appendTyped(b, in.Arg(0))
	case in.Op == OpStore:
		b = append(b, "store "...)
		b = appendTypedArgs(b, in, 2)
	case in.Op == OpGEP:
		b = append(b, "getelementptr "...)
		if in.Attrs&NSW != 0 {
			b = append(b, "inbounds "...)
		}
		b = appendType(b, in.AllocTy)
		b = append(b, ", "...)
		b = appendTypedArgs(b, in, 2)
	case in.Op.IsCast():
		b = append(b, in.Op.String()...)
		b = append(b, ' ')
		b = appendTyped(b, in.Arg(0))
		b = append(b, " to "...)
		b = appendType(b, in.Ty)
	case in.Op == OpExtractElement:
		b = append(b, "extractelement "...)
		b = appendTypedArgs(b, in, 2)
	case in.Op == OpInsertElement:
		b = append(b, "insertelement "...)
		b = appendTypedArgs(b, in, 3)
	case in.Op == OpBr && in.NumArgs() == 0:
		b = append(b, "br label %"...)
		b = append(b, in.BlockArg(0).Nam...)
	case in.Op == OpBr:
		b = append(b, "br "...)
		b = appendTyped(b, in.Arg(0))
		b = append(b, ", label %"...)
		b = append(b, in.BlockArg(0).Nam...)
		b = append(b, ", label %"...)
		b = append(b, in.BlockArg(1).Nam...)
	case in.Op == OpRet && in.NumArgs() == 0:
		b = append(b, "ret void"...)
	case in.Op == OpRet:
		b = append(b, "ret "...)
		b = appendTyped(b, in.Arg(0))
	case in.Op == OpUnreachable:
		b = append(b, "unreachable"...)
	case in.Op == OpCall:
		b = append(b, "call "...)
		b = appendType(b, in.Ty)
		b = append(b, " @"...)
		b = append(b, in.Callee.Nam...)
		b = append(b, '(')
		b = appendTypedArgs(b, in, in.NumArgs())
		b = append(b, ')')
	default:
		b = append(b, "<unknown op "...)
		b = strconv.AppendUint(b, uint64(in.Op), 10)
		b = append(b, '>')
	}
	return b
}

// appendAttrs appends the attribute list with a trailing space when
// non-empty, exactly as Attrs.String renders it.
func appendAttrs(b []byte, a Attrs) []byte {
	if a&NSW != 0 {
		b = append(b, "nsw "...)
	}
	if a&NUW != 0 {
		b = append(b, "nuw "...)
	}
	if a&Exact != 0 {
		b = append(b, "exact "...)
	}
	return b
}

// appendTypedArgs appends "ty ident" for the first n operands,
// comma-separated.
func appendTypedArgs(b []byte, in *Instr, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendTyped(b, in.Arg(i))
	}
	return b
}

// appendTyped appends "ty ident" for an operand.
func appendTyped(b []byte, v Value) []byte {
	b = appendType(b, v.Type())
	b = append(b, ' ')
	return appendIdent(b, v)
}

// appendIdent appends v.Ident(). Each spelling lives in the value's
// Ident method (or, for constants, the appendIdent it delegates to);
// the type switch only makes the calls static so the compiler inlines
// the sigil-plus-name concatenations into the append and allocates
// nothing.
func appendIdent(b []byte, v Value) []byte {
	switch v := v.(type) {
	case *Instr:
		return append(b, v.Ident()...)
	case *Param:
		return append(b, v.Ident()...)
	case *Global:
		return append(b, v.Ident()...)
	case *Const:
		return v.appendIdent(b)
	case *VecConst:
		return v.appendIdent(b)
	}
	return append(b, v.Ident()...)
}

// AppendTo appends t's String rendering to b.
func (t Type) AppendTo(b []byte) []byte { return appendType(b, t) }

// appendType appends t.String(), which spells every kind but vectors
// without allocating; vectors are rendered here, where their element
// types can be appended in place.
func appendType(b []byte, t Type) []byte {
	if t.Kind != VecKind {
		return append(b, t.String()...)
	}
	b = strconv.AppendUint(append(b, '<'), uint64(t.Len), 10)
	b = appendType(append(b, " x "...), t.ElemType())
	return append(b, '>')
}
