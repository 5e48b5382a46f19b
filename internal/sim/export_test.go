package sim

import "hlpower/internal/logic"

// Outputs' paths, as OutputsPath names them.
const (
	PathFeedForward = "feed-forward"
	PathTable       = "table"
	PathRun         = "run"
)

// OutputsPath names the path Outputs takes for n.
func OutputsPath(n *logic.Netlist) string {
	switch ff, tab := planOutputs(n); {
	case ff != nil:
		return PathFeedForward
	case tab != nil:
		return PathTable
	}
	return PathRun
}
