package sim

// The paths of (*Compiled).Outputs, as OutputsPath names them.
const (
	PathFeedForward = "feed-forward"
	PathFused       = "fused"
	PathTable       = "table"
	PathRun         = "run"
)

// OutputsPath names the path c.Outputs takes: it reads the plan
// Compile made.
func OutputsPath(c *Compiled) string {
	switch {
	case c.ud != nil:
		return PathFeedForward
	case c.fused != nil:
		return PathFused
	case c.tab != nil:
		return PathTable
	}
	return PathRun
}
