package vectorh_test

import (
	"reflect"
	"regexp"
	"sort"
	"testing"

	"vectorh"
	"vectorh/internal/core"
)

// TestExecutionEntryPoints guards the one query path: the exported
// execution/DML methods of the engine and of the façade (which promotes the
// engine's) are exactly these. A reintroduced context-free twin, options
// variant or prepared-statement shortcut fails here.
func TestExecutionEntryPoints(t *testing.T) {
	entry := regexp.MustCompile(`^(Run|Query|Exec|Insert|Delete|Update|Prepare)`)
	entryPoints := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; entry.MatchString(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	engine := []string{"DeleteWhere", "InsertRows", "Query", "Run", "UpdateWhere"}
	facade := append([]string{"ExecSQL", "QueryProfileSQL", "QuerySQL", "QueryStreamProfileSQL", "QueryStreamSQL"}, engine...)
	sort.Strings(facade)

	if got := entryPoints(reflect.TypeOf(&core.Engine{})); !reflect.DeepEqual(got, engine) {
		t.Errorf("*core.Engine entry points = %v, want %v", got, engine)
	}
	if got := entryPoints(reflect.TypeOf(&vectorh.DB{})); !reflect.DeepEqual(got, facade) {
		t.Errorf("*vectorh.DB entry points = %v, want %v", got, facade)
	}
}
