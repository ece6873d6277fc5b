package core

// DropStores empties the three construction stores, so that the next
// session builds everything itself (tests compare it against sessions that
// did not have to).
func DropStores() {
	layouts.drop()
	machines.drop()
	images.drop()
}

// StoreLens returns how many layouts, idle machines and images are stored,
// and StoreCaps the bounds they must stay within.
func StoreLens() (nlayouts, nmachines, nimages int) {
	return layouts.len(), machines.len(), images.len()
}

func StoreCaps() (nlayouts, nmachines, nimages int) {
	return layouts.max, machines.max, images.max
}

// IdleLanes returns the lane count of every idle machine, most recently
// used first.
func IdleLanes() []int {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	var out []int
	for _, e := range machines.ents {
		out = append(out, e.val.Lanes())
	}
	return out
}

func (s *store[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ents)
}

func (s *store[K, V]) drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ents = nil
}
