// Package techmap maps AIGs onto a standard-cell library and estimates
// area, power and delay — the PPA numbers behind Fig. 5 of the paper. The
// library mirrors the NanGate 45nm Open Cell Library's relative cell
// sizes; the flow stands in for the paper's Cadence Genus/Innovus runs.
// Absolute values are calibrated estimates; overhead *ratios* between an
// original and a locked netlist are the meaningful output.
package techmap

import (
	"fmt"
	"sort"

	"obfuslock/internal/aig"
	"obfuslock/internal/sim"
)

// Cell describes one library cell.
type Cell struct {
	Name string
	// AreaUM2 is the cell area in square microns.
	AreaUM2 float64
	// DelayPS is a load-independent pin-to-pin delay estimate.
	DelayPS float64
	// LeakNW is the leakage power in nanowatts.
	LeakNW float64
	// InCapFF is the input capacitance per pin in femtofarads.
	InCapFF float64
}

// Library cells, NanGate-45nm-flavoured.
var (
	CellInv  = Cell{"INV_X1", 0.532, 10, 1.0, 1.0}
	CellAnd  = Cell{"AND2_X1", 1.064, 25, 2.0, 1.0}
	CellNand = Cell{"NAND2_X1", 0.798, 15, 1.5, 1.1}
	CellOr   = Cell{"OR2_X1", 1.064, 25, 2.0, 1.0}
	CellNor  = Cell{"NOR2_X1", 0.798, 18, 1.8, 1.1}
	CellXor  = Cell{"XOR2_X1", 1.596, 35, 3.5, 2.0}
	CellXnor = Cell{"XNOR2_X1", 1.862, 35, 3.8, 2.0}
	CellMaj  = Cell{"MAJ3_X1", 2.128, 40, 4.5, 1.3}
)

// Electrical constants for dynamic power: P = alpha * C * Vdd^2 * f.
const (
	vdd     = 1.1 // volts
	clockHz = 1e9 // 1 ns target clock, as in the paper's analysis
)

// Mapped is the result of technology mapping.
type Mapped struct {
	// CellCount per cell name.
	CellCount map[string]int
	// NumCells is the total instance count.
	NumCells int
	// cellOf assigns each logic variable its (polarity-chosen) cell.
	cellOf []*Cell
	// invOn marks variables that additionally drive an inverter.
	invOn []bool
	// outCompl marks variables whose chosen cell produces the complement
	// of the AIG node function (e.g. NAND instead of AND).
	outCompl []bool
	g        *aig.AIG
}

// Map covers the AIG with library cells. Each logic node becomes one
// 2-or-3-input cell; output polarity (AND/NAND, OR/NOR, XOR/XNOR) is
// chosen to minimize explicit inverters given how the node's fanouts use
// it, and remaining complemented uses share one inverter per net.
func Map(g *aig.AIG) *Mapped {
	posUse := make([]int, g.MaxVar()+1)
	negUse := make([]int, g.MaxVar()+1)
	note := func(l aig.Lit) {
		if l.IsCompl() {
			negUse[l.Var()]++
		} else {
			posUse[l.Var()]++
		}
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		for _, f := range g.Fanins(v) {
			note(f)
		}
	}
	for _, po := range g.Outputs() {
		note(po)
	}

	m := &Mapped{
		CellCount: map[string]int{},
		cellOf:    make([]*Cell, g.MaxVar()+1),
		invOn:     make([]bool, g.MaxVar()+1),
		outCompl:  make([]bool, g.MaxVar()+1),
		g:         g,
	}
	addCell := func(c *Cell) {
		m.CellCount[c.Name]++
		m.NumCells++
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		op := g.Op(v)
		if op == aig.OpInput {
			// Complemented PI uses need one inverter on the input net.
			if negUse[v] > 0 {
				m.invOn[v] = true
				addCell(&CellInv)
			}
			continue
		}
		var pos, neg *Cell
		switch op {
		case aig.OpAnd:
			pos, neg = &CellAnd, &CellNand
		case aig.OpXor:
			pos, neg = &CellXor, &CellXnor
		case aig.OpMaj:
			pos, neg = &CellMaj, nil
		default:
			continue
		}
		// Choose the polarity that avoids an inverter, or the cheaper
		// combination when both polarities are used.
		needPos := posUse[v] > 0
		needNeg := negUse[v] > 0
		switch {
		case needNeg && !needPos && neg != nil:
			m.cellOf[v] = neg
			m.outCompl[v] = true
			addCell(neg)
		case needNeg && needPos && neg != nil && neg.AreaUM2+CellInv.AreaUM2 < pos.AreaUM2+CellInv.AreaUM2:
			m.cellOf[v] = neg
			m.outCompl[v] = true
			m.invOn[v] = true
			addCell(neg)
			addCell(&CellInv)
		default:
			m.cellOf[v] = pos
			addCell(pos)
			if needNeg {
				m.invOn[v] = true
				addCell(&CellInv)
			}
		}
	}
	return m
}

// Report holds the PPA estimate of a mapped netlist.
type Report struct {
	// AreaUM2 is the summed cell area.
	AreaUM2 float64
	// NumCells is the instance count.
	NumCells int
	// LeakageUW is the summed leakage in microwatts.
	LeakageUW float64
	// DynamicUW is the switching power in microwatts at the target clock.
	DynamicUW float64
	// TotalUW is leakage + dynamic.
	TotalUW float64
	// CriticalPathPS is the longest register-to-register path estimate.
	CriticalPathPS float64
}

func (r Report) String() string {
	return fmt.Sprintf("area=%.1fum2 cells=%d power=%.2fuW delay=%.0fps",
		r.AreaUM2, r.NumCells, r.TotalUW, r.CriticalPathPS)
}

// Analyze maps the netlist and estimates PPA. Switching activity comes
// from words*64 random simulation patterns.
func Analyze(g *aig.AIG, words int, seed int64) Report {
	m := Map(g)
	rep := Report{NumCells: m.NumCells}

	// Area and leakage from instance counts, in sorted cell order so the
	// float accumulation is reproducible (map iteration order is not).
	names := make([]string, 0, len(m.CellCount))
	for name := range m.CellCount {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := m.CellCount[name]
		c := cellByName(name)
		rep.AreaUM2 += c.AreaUM2 * float64(n)
		rep.LeakageUW += c.LeakNW * float64(n) / 1000
	}

	// Dynamic power: per-net toggle rate times downstream input cap.
	if g.NumInputs() > 0 && words > 0 {
		v := sim.RunRandom(g, words, seed)
		loadFF := make([]float64, g.MaxVar()+1)
		for n := uint32(1); n <= g.MaxVar(); n++ {
			if c := m.cellOf[n]; c != nil {
				for _, f := range g.Fanins(n) {
					loadFF[f.Var()] += c.InCapFF
				}
			}
		}
		var dynW float64
		for n := uint32(1); n <= g.MaxVar(); n++ {
			alpha := v.ToggleFraction(n)
			capF := loadFF[n] * 1e-15
			extra := 0.0
			if m.invOn[n] {
				extra = CellInv.InCapFF * 1e-15
			}
			dynW += alpha * (capF + extra) * vdd * vdd * clockHz / 2
		}
		rep.DynamicUW = dynW * 1e6
	}
	rep.TotalUW = rep.LeakageUW + rep.DynamicUW

	// Delay: longest path with per-cell delays; a complemented fanout use
	// of a net adds the inverter delay on that edge.
	arrive := make([]float64, g.MaxVar()+1)
	for n := uint32(1); n <= g.MaxVar(); n++ {
		c := m.cellOf[n]
		if c == nil {
			continue
		}
		worst := 0.0
		for _, f := range g.Fanins(n) {
			a := arrive[f.Var()]
			if f.IsCompl() != m.outCompl[f.Var()] && !f.IsConst() {
				a += CellInv.DelayPS
			}
			if a > worst {
				worst = a
			}
		}
		arrive[n] = worst + c.DelayPS
	}
	for _, po := range g.Outputs() {
		a := arrive[po.Var()]
		if po.IsCompl() != m.outCompl[po.Var()] && !po.IsConst() {
			a += CellInv.DelayPS
		}
		if a > rep.CriticalPathPS {
			rep.CriticalPathPS = a
		}
	}
	return rep
}

func cellByName(name string) *Cell {
	switch name {
	case CellInv.Name:
		return &CellInv
	case CellAnd.Name:
		return &CellAnd
	case CellNand.Name:
		return &CellNand
	case CellOr.Name:
		return &CellOr
	case CellNor.Name:
		return &CellNor
	case CellXor.Name:
		return &CellXor
	case CellXnor.Name:
		return &CellXnor
	case CellMaj.Name:
		return &CellMaj
	}
	panic("techmap: unknown cell " + name)
}

// Overhead summarizes locked-vs-original PPA ratios, as percentages.
type Overhead struct {
	AreaPct  float64
	PowerPct float64
	DelayPct float64
}

// Compare computes the PPA overhead of the locked netlist relative to the
// original (paper Fig. 5 metrics).
func Compare(orig, locked Report) Overhead {
	pct := func(o, l float64) float64 {
		if o == 0 {
			return 0
		}
		return (l - o) / o * 100
	}
	return Overhead{
		AreaPct:  pct(orig.AreaUM2, locked.AreaUM2),
		PowerPct: pct(orig.TotalUW, locked.TotalUW),
		DelayPct: pct(orig.CriticalPathPS, locked.CriticalPathPS),
	}
}
