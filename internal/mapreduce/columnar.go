package mapreduce

// Column kernels: when the input list carries a raw []float64 or []string
// column (see value.List) and both kernels have column-native variants,
// Run feeds those variants to the same pipeline with a float64 value
// column — no per-item boxing and no per-group value lists. A variant
// comes from one of two places. The caller may pass it in Config.Columns:
// the mapReduce block does so for rings the compile tier gives a float
// form. Otherwise the registry below supplies it for the stock kernels.
// Either way a variant is the assertion that it computes exactly what its
// boxed counterpart computes (keys, values, errors); planColumnRun is the
// one place that picks the column path.

import (
	"reflect"

	"repro/internal/value"
)

// FloatMapper is the columnar form of a one-in-one-out Mapper over a
// numeric column: it maps one float to one (key, value) pair.
type FloatMapper func(x float64) (key string, val float64, err error)

// StringMapper is the columnar form of a one-in-one-out Mapper over a text
// column, for mappers whose emitted values are numeric (word→1 counting,
// parse-and-convert pipelines).
type StringMapper func(s string) (key string, val float64, err error)

// FloatReducer is the columnar form of a Reducer whose group values are
// all numeric. vals is a read-only view carved from one backing array.
type FloatReducer func(key string, vals []float64) (value.Value, error)

// Columns is a caller's pair of column kernels for one run, asserted
// equivalent to the run's Mapper and Reducer. A nil field leaves that
// kernel to the registry.
type Columns struct {
	FloatMap    FloatMapper
	FloatReduce FloatReducer
}

var (
	floatMappers  = map[uintptr]FloatMapper{}
	stringMappers = map[uintptr]StringMapper{}
	floatReducers = map[uintptr]FloatReducer{}
)

// fnPtr keys the registries by code pointer, which is unique per top-level
// function — the shape every stock kernel has. Closures from one factory
// share a code pointer, so they must not be registered.
func fnPtr(fn any) uintptr { return reflect.ValueOf(fn).Pointer() }

// RegisterFloatMapper declares fm as the columnar equivalent of m. The
// caller asserts exact behavioral equivalence (keys, values, errors).
// Registration is init-time only; the registries are read concurrently
// without locking afterwards.
func RegisterFloatMapper(m Mapper, fm FloatMapper) { floatMappers[fnPtr(m)] = fm }

// RegisterStringMapper declares sm as the columnar equivalent of m over
// text columns, under the same equivalence contract.
func RegisterStringMapper(m Mapper, sm StringMapper) { stringMappers[fnPtr(m)] = sm }

// RegisterFloatReducer declares fr as the columnar equivalent of r, under
// the same equivalence contract.
func RegisterFloatReducer(r Reducer, fr FloatReducer) { floatReducers[fnPtr(r)] = fr }

func init() {
	RegisterFloatMapper(Identity, func(x float64) (string, float64, error) {
		return value.Number(x).String(), x, nil
	})
	RegisterFloatMapper(SingleKey, func(x float64) (string, float64, error) {
		return "", x, nil
	})
	RegisterFloatMapper(WordCount, func(x float64) (string, float64, error) {
		return value.Number(x).String(), 1, nil
	})
	RegisterFloatMapper(FahrenheitToCelsius, func(x float64) (string, float64, error) {
		return "", (5 * (x - 32)) / 9, nil
	})
	RegisterStringMapper(WordCount, func(s string) (string, float64, error) {
		return s, 1, nil
	})
	RegisterStringMapper(FahrenheitToCelsius, func(s string) (string, float64, error) {
		n, err := value.ParseNumber(s)
		if err != nil {
			return "", 0, err
		}
		return "", (5 * (float64(n) - 32)) / 9, nil
	})
	RegisterFloatReducer(SumReduce, func(key string, vals []float64) (value.Value, error) {
		// Accumulate in emission order, exactly as the boxed SumReduce
		// folds value.Number addition.
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return value.Number(sum), nil
	})
	RegisterFloatReducer(CountReduce, func(key string, vals []float64) (value.Value, error) {
		return value.NumInt(len(vals)), nil
	})
	RegisterFloatReducer(AvgReduce, func(key string, vals []float64) (value.Value, error) {
		return value.Number(avgFloats(vals)), nil
	})
	RegisterFloatReducer(IdentityReduce, func(key string, vals []float64) (value.Value, error) {
		if len(vals) == 1 {
			return value.Num(vals[0]), nil
		}
		return value.FromFloats(vals), nil
	})
}

// planColumnRun reports whether input, m, and r can run on a float64 value
// column: the input must carry a column and both kernels must have column
// variants for that column's type. A variant comes from given (the run's
// Config.Columns, which cover float columns only) when set, else from the
// registry.
func planColumnRun(input *value.List, m Mapper, r Reducer, given ...Columns) (kernels[float64], bool) {
	var cols Columns
	if len(given) > 0 {
		cols = given[0]
	}
	fr := cols.FloatReduce
	if fr == nil {
		fr = floatReducers[fnPtr(r)]
	}
	if fr == nil {
		return kernels[float64]{}, false
	}
	if xs, isNum := input.FloatsView(); isNum {
		fm := cols.FloatMap
		if fm == nil {
			fm = floatMappers[fnPtr(m)]
		}
		return kernels[float64]{
			n:      len(xs),
			mapf:   func(i int) (string, float64, error) { return fm(xs[i]) },
			reduce: fr,
		}, fm != nil
	}
	if ss, isStr := input.StringsView(); isStr {
		sm, ok := stringMappers[fnPtr(m)]
		return kernels[float64]{
			n:      len(ss),
			mapf:   func(i int) (string, float64, error) { return sm(ss[i]) },
			reduce: fr,
		}, ok
	}
	return kernels[float64]{}, false
}
