package fault

import (
	"fmt"
	"strconv"
	"strings"

	"pamigo/internal/torus"
)

// ParsePlan parses the -faults flag syntax: a comma-separated list of
// clauses,
//
//	drop=P        per-attempt drop probability
//	corrupt=P     per-attempt corruption probability
//	dup=P         per-attempt duplication probability
//	delay=P       per-attempt delay probability
//	linkdown=N:L@C  the cable out of node N across link L (e.g. A+, C-)
//	                dies once C packets have moved; @C optional (@0)
//	stall=N@F-T   node N refuses reception while the packet count is in [F,T)
//	crash@pkt=C   followed by node=X: node X crashes once C packets have
//	              moved (crash-stop: its processes stop and never return)
//	hang@pkt=C    followed by node=X: node X freezes instead (processes
//	              park but hold their resources)
//
// e.g. "drop=0.05,corrupt=0.02,dup=0.01,linkdown=3:A+@500,stall=1@100-200"
// or "crash@pkt=5000,node=3". The crash/hang verbs are stateful: each
// opens a node fault that the next node= clause completes.
// An empty spec parses to the zero (inactive) plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	var pendingNF *NodeFault // opened by crash@pkt/hang@pkt, closed by node=
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return p, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		if pendingNF != nil && key != "node" {
			return p, fmt.Errorf("fault: %s@pkt=%d wants a node= clause next, got %q",
				pendingNF.Kind, pendingNF.AfterPackets, clause)
		}
		switch key {
		case "drop", "corrupt", "dup", "delay":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("fault: %s: %v", key, err)
			}
			switch key {
			case "drop":
				p.Drop = f
			case "corrupt":
				p.Corrupt = f
			case "dup":
				p.Duplicate = f
			case "delay":
				p.Delay = f
			}
		case "linkdown":
			ld, err := parseLinkDown(val)
			if err != nil {
				return p, err
			}
			p.LinkDowns = append(p.LinkDowns, ld)
		case "stall":
			s, err := parseStall(val)
			if err != nil {
				return p, err
			}
			p.Stalls = append(p.Stalls, s)
		case "crash@pkt", "hang@pkt":
			c, err := strconv.ParseInt(val, 10, 64)
			if err != nil || c < 0 {
				return p, fmt.Errorf("fault: %s count %q must be a non-negative integer", key, val)
			}
			kind := FaultCrash
			if key == "hang@pkt" {
				kind = FaultHang
			}
			pendingNF = &NodeFault{Kind: kind, AfterPackets: c}
		case "node":
			if pendingNF == nil {
				return p, fmt.Errorf("fault: node=%s without a preceding crash@pkt/hang@pkt clause", val)
			}
			node, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("fault: node %q: %v", val, err)
			}
			pendingNF.Node = torus.Rank(node)
			p.NodeFaults = append(p.NodeFaults, *pendingNF)
			pendingNF = nil
		default:
			return p, fmt.Errorf("fault: unknown clause %q", key)
		}
	}
	if pendingNF != nil {
		return p, fmt.Errorf("fault: %s@pkt=%d missing its node= clause",
			pendingNF.Kind, pendingNF.AfterPackets)
	}
	return p, nil
}

// parseLinkDown parses "N:L@C" ("3:A+@500") or "N:L".
func parseLinkDown(s string) (LinkDown, error) {
	var ld LinkDown
	nodeLink, after, hasAfter := strings.Cut(s, "@")
	nodeStr, linkStr, ok := strings.Cut(nodeLink, ":")
	if !ok {
		return ld, fmt.Errorf("fault: linkdown %q wants NODE:LINK[@COUNT]", s)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return ld, fmt.Errorf("fault: linkdown node %q: %v", nodeStr, err)
	}
	link, err := ParseLink(linkStr)
	if err != nil {
		return ld, err
	}
	ld.Node = torus.Rank(node)
	ld.Link = link
	if hasAfter {
		c, err := strconv.ParseInt(after, 10, 64)
		if err != nil {
			return ld, fmt.Errorf("fault: linkdown count %q: %v", after, err)
		}
		ld.AfterPackets = c
	}
	return ld, nil
}

// parseStall parses "N@F-T" ("1@100-200").
func parseStall(s string) (Stall, error) {
	var st Stall
	nodeStr, window, ok := strings.Cut(s, "@")
	if !ok {
		return st, fmt.Errorf("fault: stall %q wants NODE@FROM-TO", s)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return st, fmt.Errorf("fault: stall node %q: %v", nodeStr, err)
	}
	fromStr, toStr, ok := strings.Cut(window, "-")
	if !ok {
		return st, fmt.Errorf("fault: stall window %q wants FROM-TO", window)
	}
	from, err := strconv.ParseInt(fromStr, 10, 64)
	if err != nil {
		return st, fmt.Errorf("fault: stall from %q: %v", fromStr, err)
	}
	to, err := strconv.ParseInt(toStr, 10, 64)
	if err != nil {
		return st, fmt.Errorf("fault: stall to %q: %v", toStr, err)
	}
	st.Node = torus.Rank(node)
	st.From, st.To = from, to
	return st, nil
}

// ParseLink parses a link name as the paper writes them: "A+".."E-".
func ParseLink(s string) (torus.Link, error) {
	var l torus.Link
	if len(s) != 2 || s[0] < 'A' || s[0] > 'A'+torus.NumDims-1 {
		return l, fmt.Errorf("fault: bad link %q (want A+..E-)", s)
	}
	l.Dim = int(s[0] - 'A')
	switch s[1] {
	case '+':
		l.Dir = +1
	case '-':
		l.Dir = -1
	default:
		return l, fmt.Errorf("fault: bad link direction in %q", s)
	}
	return l, nil
}

// String renders the plan back in ParsePlan syntax.
func (p Plan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.Drop)
	add("corrupt", p.Corrupt)
	add("dup", p.Duplicate)
	add("delay", p.Delay)
	for _, ld := range p.LinkDowns {
		parts = append(parts, fmt.Sprintf("linkdown=%d:%s@%d", ld.Node, ld.Link, ld.AfterPackets))
	}
	for _, s := range p.Stalls {
		parts = append(parts, fmt.Sprintf("stall=%d@%d-%d", s.Node, s.From, s.To))
	}
	for _, nf := range p.NodeFaults {
		parts = append(parts, fmt.Sprintf("%s@pkt=%d,node=%d", nf.Kind, nf.AfterPackets, nf.Node))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
