package harness

import (
	"fmt"

	"shmrename/internal/longlived"
	"shmrename/internal/registry"
)

// elasticEnvelope is the residency ceiling a healthy elastic ladder may
// reach after churn that peaked at `peak` simultaneous holders on a
// capacity-n arena, under the default policy (a 64-name base level,
// GrowAt 0.75). A level is appended when occupancy crosses GrowAt of the
// resident prefix, so growth stops at the first prefix whose trip clears
// the peak; the failed-pass retry only ever fires with the resident
// prefix genuinely full (occupancy == prefix <= peak), which the same
// loop covers. The full ladder is the absolute ceiling either way.
func elasticEnvelope(capacity int, peak int64) int64 {
	const base, growAt = 64, 0.75
	var sizes []int
	for s := base; s < capacity; s *= 2 {
		sizes = append(sizes, s)
	}
	sizes = append(sizes, capacity)
	prefix := int64(sizes[0])
	for li := 1; li < len(sizes) && float64(prefix)*growAt <= float64(peak); li++ {
		prefix += int64(sizes[li])
	}
	return prefix
}

// assertElasticAdaptive is the per-trial adaptivity gate of the churn
// experiments: a backend that reports registry.Elastic must have kept both
// its resident capacity and every issued name within the envelope of the
// trial's peak holder count — growth proportional to observed contention,
// never to provisioning. The grow trigger watches live claims, and a claim
// exists from the moment its CAS lands — before the worker's body registers
// the name with the monitor — so peak claims can ride up to `inflight`
// above the registered peak (one claim per worker per un-registered
// acquire: k for single-name churn, k*batch for batch churn). Fixed
// backends pass through untouched.
func assertElasticAdaptive(exp, name string, capacity, inflight int, arena any, mon *longlived.Monitor) {
	el, ok := arena.(registry.Elastic)
	if !ok {
		return
	}
	env := elasticEnvelope(capacity, mon.MaxActive()+int64(inflight))
	if got := int64(el.PeakCapacity()); got > env {
		panic(fmt.Sprintf("%s %s n=%d: peak capacity %d above the %d-name envelope of %d peak holders",
			exp, name, capacity, got, env, mon.MaxActive()))
	}
	if m := mon.MaxName(); m >= env {
		panic(fmt.Sprintf("%s %s n=%d: issued name %d outside the %d-name envelope of %d peak holders",
			exp, name, capacity, m, env, mon.MaxActive()))
	}
}
