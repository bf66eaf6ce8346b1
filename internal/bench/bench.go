// Package bench reads and writes gate-level netlists in the ISCAS .bench
// format, the interchange format used by the logic-locking literature.
//
// Supported gate types: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF(F), MAJ
// (an extension emitted for extended AIGs), and constants via the
// vdd/gnd convention (lines like "x = vdd").
// Multi-input gates are accepted and decomposed into balanced trees.
package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"obfuslock/internal/aig"
)

// Read parses a .bench netlist into an extended AIG.
func Read(r io.Reader) (*aig.AIG, error) {
	type gate struct {
		name string
		typ  string
		ins  []string
		line int
	}
	var (
		inputs  []string
		outputs []string
		gates   []gate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(lower, "input("):
			name, err := parseDecl(line)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			inputs = append(inputs, name)
		case strings.HasPrefix(lower, "output("):
			name, err := parseDecl(line)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			outputs = append(outputs, name)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench: line %d: expected assignment: %q", lineNo, line)
			}
			name := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			rl := strings.ToLower(rhs)
			if rl == "vdd" || rl == "gnd" {
				gates = append(gates, gate{name: name, typ: rl, line: lineNo})
				continue
			}
			open := strings.Index(rhs, "(")
			close_ := strings.LastIndex(rhs, ")")
			if open < 0 || close_ < open {
				return nil, fmt.Errorf("bench: line %d: malformed gate: %q", lineNo, line)
			}
			typ := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			var ins []string
			for _, f := range strings.Split(rhs[open+1:close_], ",") {
				f = strings.TrimSpace(f)
				if f != "" {
					ins = append(ins, f)
				}
			}
			gates = append(gates, gate{name: name, typ: typ, ins: ins, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("bench: line %d exceeds the 1 MiB line buffer (split long gate definitions across lines): %v", lineNo+1, err)
		}
		return nil, fmt.Errorf("bench: %v", err)
	}

	g := aig.New()
	lits := make(map[string]aig.Lit, len(inputs)+len(gates))
	for _, name := range inputs {
		if _, dup := lits[name]; dup {
			return nil, fmt.Errorf("bench: duplicate input %q", name)
		}
		lits[name] = g.AddInput(name)
	}

	// Gates may appear out of topological order; resolve iteratively.
	remaining := gates
	for len(remaining) > 0 {
		progress := false
		var deferred []gate
	gateLoop:
		for _, gt := range remaining {
			if _, dup := lits[gt.name]; dup {
				return nil, fmt.Errorf("bench: line %d: duplicate signal %q", gt.line, gt.name)
			}
			ins := make([]aig.Lit, len(gt.ins))
			for i, n := range gt.ins {
				l, ok := lits[n]
				if !ok {
					deferred = append(deferred, gt)
					continue gateLoop
				}
				ins[i] = l
			}
			l, err := buildGate(g, gt.typ, ins)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", gt.line, err)
			}
			lits[gt.name] = l
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("bench: unresolved signals (cycle or missing driver), e.g. %q", deferred[0].name)
		}
		remaining = deferred
	}

	for _, name := range outputs {
		l, ok := lits[name]
		if !ok {
			return nil, fmt.Errorf("bench: output %q has no driver", name)
		}
		g.AddOutput(l, name)
	}
	return g, nil
}

func parseDecl(line string) (string, error) {
	open := strings.Index(line, "(")
	close_ := strings.LastIndex(line, ")")
	if open < 0 || close_ < open {
		return "", fmt.Errorf("malformed declaration: %q", line)
	}
	name := strings.TrimSpace(line[open+1 : close_])
	if name == "" {
		return "", fmt.Errorf("empty name in %q", line)
	}
	return name, nil
}

func buildGate(g *aig.AIG, typ string, ins []aig.Lit) (aig.Lit, error) {
	need := func(n int) error {
		if len(ins) < n {
			return fmt.Errorf("%s needs at least %d inputs, got %d", typ, n, len(ins))
		}
		return nil
	}
	switch typ {
	case "gnd":
		return aig.ConstFalse, nil
	case "vdd":
		return aig.ConstTrue, nil
	case "NOT":
		if err := need(1); err != nil {
			return 0, err
		}
		return ins[0].Not(), nil
	case "BUF", "BUFF":
		if err := need(1); err != nil {
			return 0, err
		}
		return ins[0], nil
	case "AND":
		if err := need(1); err != nil {
			return 0, err
		}
		return g.AndN(ins...), nil
	case "NAND":
		if err := need(1); err != nil {
			return 0, err
		}
		return g.AndN(ins...).Not(), nil
	case "OR":
		if err := need(1); err != nil {
			return 0, err
		}
		return g.OrN(ins...), nil
	case "NOR":
		if err := need(1); err != nil {
			return 0, err
		}
		return g.OrN(ins...).Not(), nil
	case "XOR":
		if err := need(2); err != nil {
			return 0, err
		}
		acc := ins[0]
		for _, l := range ins[1:] {
			acc = g.Xor(acc, l)
		}
		return acc, nil
	case "XNOR":
		if err := need(2); err != nil {
			return 0, err
		}
		acc := ins[0]
		for _, l := range ins[1:] {
			acc = g.Xor(acc, l)
		}
		return acc.Not(), nil
	case "MAJ":
		if len(ins) != 3 {
			return 0, fmt.Errorf("MAJ needs exactly 3 inputs, got %d", len(ins))
		}
		return g.Maj(ins[0], ins[1], ins[2]), nil
	}
	return 0, fmt.Errorf("unknown gate type %q", typ)
}

// Write emits the graph in .bench format. Internal nodes are named n<var>;
// complemented edges materialize NOT gates named <signal>_n on demand.
// Generated names never shadow a declared input or output name (or each
// other): a clash is resolved by appending _<k>, so every netlist Read
// accepts survives a Write+Read round trip.
func Write(w io.Writer, g *aig.AIG) error {
	bw := bufio.NewWriter(w)
	if g.Name != "" {
		fmt.Fprintf(bw, "# %s\n", g.Name)
	}
	st := g.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", st.Inputs, st.Outputs, st.Nodes())

	names := make(map[uint32]string, g.MaxVar()+1)
	taken := make(map[string]bool, g.NumInputs()+g.NumOutputs())
	for i := 0; i < g.NumInputs(); i++ {
		name := g.InputName(i)
		names[g.InputVar(i)] = name
		taken[name] = true
		fmt.Fprintf(bw, "INPUT(%s)\n", name)
	}
	for i := 0; i < g.NumOutputs(); i++ {
		taken[g.OutputName(i)] = true
		fmt.Fprintf(bw, "OUTPUT(%s)\n", g.OutputName(i))
	}
	fresh := func(want string) string {
		name := want
		for k := 1; taken[name]; k++ {
			name = fmt.Sprintf("%s_%d", want, k)
		}
		taken[name] = true
		return name
	}

	needConst := false
	tfi := g.TFI(g.Outputs()...)
	for v := range tfi {
		for _, f := range g.Fanins(v) {
			if f.IsConst() {
				needConst = true
			}
		}
	}
	for _, po := range g.Outputs() {
		if po.IsConst() {
			needConst = true
		}
	}
	if needConst {
		names[0] = fresh("const0")
		fmt.Fprintf(bw, "%s = gnd\n", names[0])
	}

	// Emit NOT gates lazily: invName returns a name for a literal.
	inverted := make(map[uint32]string)
	litName := func(l aig.Lit) string {
		base := names[l.Var()]
		if !l.IsCompl() {
			return base
		}
		if n, ok := inverted[l.Var()]; ok {
			return n
		}
		want := base + "_n"
		if !definable(want) {
			want = fmt.Sprintf("n%d_n", l.Var())
		}
		n := fresh(want)
		fmt.Fprintf(bw, "%s = NOT(%s)\n", n, base)
		inverted[l.Var()] = n
		return n
	}

	// Stable topological emission: variables ascend in topo order already.
	vars := make([]uint32, 0, len(tfi))
	for v := range tfi {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	for _, v := range vars {
		op := g.Op(v)
		if op == aig.OpInput || op == aig.OpConst {
			continue
		}
		name := fresh(fmt.Sprintf("n%d", v))
		names[v] = name
		fan := g.Fanins(v)
		switch op {
		case aig.OpAnd:
			fmt.Fprintf(bw, "%s = AND(%s, %s)\n", name, litName(fan[0]), litName(fan[1]))
		case aig.OpXor:
			fmt.Fprintf(bw, "%s = XOR(%s, %s)\n", name, litName(fan[0]), litName(fan[1]))
		case aig.OpMaj:
			fmt.Fprintf(bw, "%s = MAJ(%s, %s, %s)\n", name,
				litName(fan[0]), litName(fan[1]), litName(fan[2]))
		}
	}

	// Primary outputs: emit BUF/NOT so the declared names exist (once per
	// name: a repeated OUTPUT declaration names the same signal).
	defined := make(map[string]bool, g.NumOutputs())
	for i := 0; i < g.NumOutputs(); i++ {
		po := g.Output(i)
		oname := g.OutputName(i)
		if defined[oname] {
			continue
		}
		defined[oname] = true
		driver := names[po.Var()] // the constant's driver is names[0]
		if driver == oname && !po.IsCompl() {
			continue // an input directly feeding an identically-named output
		}
		if po.IsCompl() {
			fmt.Fprintf(bw, "%s = NOT(%s)\n", oname, driver)
		} else {
			fmt.Fprintf(bw, "%s = BUF(%s)\n", oname, driver)
		}
	}
	return bw.Flush()
}

// definable reports whether Read parses "<name> = ..." as a gate
// defining name: the line must not read as a comment or a declaration,
// and the name must not contain the '=' that ends it.
func definable(name string) bool {
	lower := strings.ToLower(name)
	return !strings.Contains(name, "=") && !strings.HasPrefix(name, "#") &&
		!strings.HasPrefix(lower, "input(") && !strings.HasPrefix(lower, "output(")
}
