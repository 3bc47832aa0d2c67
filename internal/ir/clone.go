package ir

// CloneFunc returns a deep copy of f: fresh blocks, instructions and
// parameters, with all internal references remapped. Constants are
// shared (they are immutable). The clone is detached from any module;
// call instructions keep pointing at the original callees.
func CloneFunc(f *Func) *Func {
	nf := &Func{Nam: f.Nam, RetTy: f.RetTy, nextID: f.nextID}
	vmap := map[Value]Value{}
	for _, p := range f.Params {
		np := NewParam(p.Nam, p.Ty)
		np.Idx = p.Idx
		nf.Params = append(nf.Params, np)
		vmap[p] = np
	}
	bmap := map[*Block]*Block{}
	for _, b := range f.Blocks {
		nb := &Block{Nam: b.Nam, parent: nf}
		nf.Blocks = append(nf.Blocks, nb)
		bmap[b] = nb
	}
	// First create all instruction shells so forward references (phis)
	// can be remapped.
	imap := map[*Instr]*Instr{}
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, in := range b.instrs {
			ni := &Instr{
				Op:      in.Op,
				Ty:      in.Ty,
				Attrs:   in.Attrs,
				Pred:    in.Pred,
				AllocTy: in.AllocTy,
				Callee:  in.Callee,
				Nam:     in.Nam,
				parent:  nb,
			}
			nb.instrs = append(nb.instrs, ni)
			imap[in] = ni
			if !in.Ty.IsVoid() {
				vmap[in] = ni
			}
		}
	}
	// Now wire operands.
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			ni := imap[in]
			if len(in.args) > 0 {
				ni.args = make([]Value, 0, len(in.args))
			}
			for _, a := range in.Args() {
				if nv, ok := vmap[a]; ok {
					ni.AddArg(nv)
				} else {
					ni.AddArg(a) // constant leaf, shared
				}
			}
			for i := 0; i < in.NumBlocks(); i++ {
				ni.AddBlockArg(bmap[in.BlockArg(i)])
			}
		}
	}
	return nf
}

// CloneModule deep-copies a module. Call instructions are retargeted to
// the cloned callees; globals are deep-copied too.
func CloneModule(m *Module) *Module {
	nm := NewModule()
	for _, g := range m.Globals {
		ng := &Global{Nam: g.Nam, Size: g.Size, Init: append([]byte(nil), g.Init...)}
		nm.AddGlobal(ng)
	}
	gmap := map[*Global]*Global{}
	for i, g := range m.Globals {
		gmap[g] = nm.Globals[i]
	}
	fmap := map[*Func]*Func{}
	for _, f := range m.Funcs {
		nf := CloneFunc(f)
		nm.AddFunc(nf)
		fmap[f] = nf
	}
	for _, nf := range nm.Funcs {
		nf.ForEachInstr(func(in *Instr) {
			if in.Callee != nil {
				if c, ok := fmap[in.Callee]; ok {
					in.Callee = c
				}
			}
			for i, a := range in.Args() {
				if g, ok := a.(*Global); ok {
					if ng, ok := gmap[g]; ok {
						in.SetArg(i, ng)
					}
				}
			}
		})
	}
	return nm
}
