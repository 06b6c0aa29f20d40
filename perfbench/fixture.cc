// `perfbench fixture --out <ckpt>`: the serving checkpoint.
//
// A paper-scale Beijing city (13,334 POIs) and a PRIM model of the paper's
// size (dim 128, 3 layers), trained for one short sampled epoch and saved
// with its serving index. Serving cost depends on the index's shape, not
// on how well the model was trained, so the run is kept short. The
// checkpoint format belongs to the code under test, so run.py builds the
// fixture with the checkout's own binary and never shares it between
// checkouts. Prints the POI and relation counts the load generator needs.
#include "fixture.h"

#include <cstdio>
#include <memory>
#include <string>

#include "core/prim_index.h"
#include "core/prim_model.h"
#include "data/presets.h"
#include "io/model_io.h"
#include "train/experiment.h"
#include "train/minibatch.h"
#include "util.h"

namespace perfbench {

int RunFixture(int argc, char** argv) {
  using namespace prim;
  const Flags flags(argc, argv);
  const std::string out_path = flags.Str("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "perfbench fixture: --out is required\n");
    return 2;
  }
  const auto t0 = Clock::now();
  train::ExperimentConfig config;
  config.model.dim = 128;
  config.model.tax_dim = 128;
  config.model.layers = 3;
  config.model.heads = 4;
  config.trainer.epochs = 1;
  config.trainer.max_positives_per_epoch = 2048;
  config.seed = 1;
  config.trainer.seed = config.seed;
  config.SyncDims();

  const data::PoiDataset city = data::MakeBeijing(data::DatasetScale::kPaper);
  train::ExperimentData data = train::PrepareExperiment(city, 0.6, config);
  Rng rng(config.seed * 7919 + 13);
  auto model = train::MakeModel("PRIM", data.ctx, config, rng, nullptr);
  train::MiniBatchConfig mb;
  mb.train = config.trainer;
  train::MiniBatchTrainer trainer(*model, data.split.train, *data.full_graph,
                                  mb);
  const train::TrainResult fit = trainer.Fit(nullptr);
  auto* prim = dynamic_cast<core::PrimModel*>(model.get());
  if (prim == nullptr) {
    std::fprintf(stderr, "perfbench fixture: PRIM model expected\n");
    return 1;
  }
  const core::PrimIndex index = core::PrimIndex::Build(*prim);
  if (io::Result r = io::SaveTrainedModel(out_path, *model, "PRIM",
                                          &config.prim, &index, city);
      !r) {
    std::fprintf(stderr, "perfbench fixture: cannot save '%s': %s\n",
                 out_path.c_str(), r.error.c_str());
    return 1;
  }
  JsonOut out;
  out.Num("num_pois", city.num_pois());
  out.Num("num_relations", city.num_relations);
  out.Num("train_loss", fit.loss_curve.empty() ? 0.0 : fit.loss_curve.back());
  out.Num("build_s", SecondsSince(t0));
  out.Num("peak_rss_mb", PeakRssMb(0));
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace perfbench
