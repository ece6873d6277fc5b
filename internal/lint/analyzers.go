package lint

// All returns the full g5lint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detmap,
		NoWallClock,
		PastSched,
		AtomicRing,
		StatReg,
		SinkDiscipline,
	}
}
