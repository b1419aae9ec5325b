package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints the per-metric change from the first saved record
// to the second. Records from different boxes or settings are refused:
// the seed may differ, nothing else may.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("usage: perfbench compare <base.json> <new.json>")
	}
	var recs [2]record
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		return err
	}
	names := make([]string, 0, len(recs[0].Result.Metrics))
	for name := range recs[0].Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := recs[0].Result.Metrics[name]
		b, ok := recs[1].Result.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s missing from %s", name, paths[1])
		}
		fmt.Fprintf(w, "%-32s %14.4f -> %14.4f %-8s %+8.2f%%\n", name, a.Value, b.Value, a.Unit, 100*ratio(b.Value-a.Value, a.Value))
	}
	return nil
}

// comparable refuses two records whose box or settings differ, apart
// from the seed.
func comparable(a, b record) error {
	if a.Box != b.Box {
		return fmt.Errorf("refused: results come from different boxes: %+v vs %+v", a.Box, b.Box)
	}
	sa, sb := a.Settings, b.Settings
	sa.Seed, sb.Seed = 0, 0
	if sa != sb {
		return fmt.Errorf("refused: results come from different settings: %+v vs %+v", sa, sb)
	}
	return nil
}
