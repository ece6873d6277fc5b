package core

// DropStores empties the three construction stores, so that the next
// session builds everything itself (tests compare it against sessions that
// did not have to).
func DropStores() {
	layouts.drop()
	units.drop()
	images.drop()
}

// StoreLens returns how many layouts, idle units and images are stored,
// and StoreCaps the bounds they must stay within.
func StoreLens() (nlayouts, nunits, nimages int) {
	return layouts.len(), units.len(), images.len()
}

func StoreCaps() (nlayouts, nunits, nimages int) {
	return layouts.max, units.max, images.max
}

// IdleUnits counts the idle units by kind.
func IdleUnits() map[string]int {
	units.mu.Lock()
	defer units.mu.Unlock()
	out := map[string]int{}
	for _, e := range units.ents {
		out[e.key.Kind()]++
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
