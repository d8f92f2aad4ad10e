package engine

import (
	"fmt"
	"sort"
	"sync"
)

// The process-wide algorithm registry. Miner packages register themselves
// from init, so importing a miner package (directly or via engine/all) is
// what makes its algorithm reachable by name. Every registered miner is a
// Ranged, so a caller reads its declarations (Uses, Ordered) as fields.
var (
	registryMu sync.RWMutex
	registry   = make(map[string]Ranged)
)

// Register adds a to the registry under a.Name(). It panics on an empty
// name or a duplicate registration — both are programmer errors caught at
// process start, since all registrations happen in init.
func Register(a Ranged) {
	name := a.Name()
	if name == "" {
		panic("engine: Register with empty algorithm name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate algorithm registration %q", name))
	}
	registry[name] = a
}

// Get returns the registered algorithm with the given name, or an error
// naming the known algorithms.
func Get(name string) (Ranged, error) {
	registryMu.RLock()
	a, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Ranged{}, fmt.Errorf("engine: unknown algorithm %q (known: %v)", name, Names())
	}
	return a, nil
}

// Names returns the sorted names of all registered algorithms.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns all registered algorithms in Names() order.
func All() []Ranged {
	registryMu.RLock()
	defer registryMu.RUnlock()
	algos := make([]Ranged, 0, len(registry))
	for _, a := range registry {
		algos = append(algos, a)
	}
	sort.Slice(algos, func(i, j int) bool { return algos[i].Name() < algos[j].Name() })
	return algos
}
