// Command train fits a workload model to a trace and prints its trained
// structure. For KOOZA the output is the regeneration of the paper's
// Figure 2: the four per-subsystem models wired by the time-dependency
// queue.
//
// Usage:
//
//	train -in trace.csv -model kooza
//	train -in trace.csv -model in-depth -o model.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dcmodel/internal/kooza"

	"dcmodel"
	"dcmodel/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		in        = flag.String("in", "-", "input trace (CSV, or binary trace-v2 for .dct paths; '-' for stdin)")
		modelName = flag.String("model", "kooza", "model: kooza, in-breadth or in-depth")
		regions   = flag.Int("regions", 32, "storage LBN-region states (kooza/in-breadth)")
		cpuStates = flag.Int("cpustates", 8, "CPU utilization-level states (kooza/in-breadth)")
		hier      = flag.Bool("hier", false, "hierarchical storage model (kooza)")
		pca       = flag.Bool("pca", false, "also print the PCA feature-space analysis")
		out       = flag.String("o", "", "save the trained model as JSON to this path")
	)
	flag.Parse()
	cliflag.Check(
		cliflag.Min("regions", *regions, 2),
		cliflag.Min("cpustates", *cpuStates, 2),
	)
	approach, err := dcmodel.ParseApproach(*modelName)
	if err != nil {
		log.Fatal(err)
	}

	tr, err := cliflag.ReadTrace(*in)
	if err != nil {
		log.Fatal(err)
	}
	if *pca {
		rep, err := kooza.FeatureAnalysis(tr)
		if err != nil {
			cliflag.Fatal(err)
		}
		fmt.Print(rep.Render())
		fmt.Println()
	}

	opts := []dcmodel.TrainOption{
		dcmodel.WithStorageRegions(*regions),
		dcmodel.WithCPUStates(*cpuStates),
	}
	if *hier {
		opts = append(opts, dcmodel.WithKoozaOptions(dcmodel.KoozaOptions{
			StorageRegions: *regions,
			CPUStates:      *cpuStates,
			Hierarchical:   true,
		}))
	}
	m, err := dcmodel.Train(tr, approach, opts...)
	if err != nil {
		cliflag.Fatal(err)
	}
	fmt.Print(m.Characterize())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := m.Save(f); err != nil {
			cliflag.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "train: saved %s model to %s\n", m.Approach(), *out)
	}
}
