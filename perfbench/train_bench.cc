// One trainer process of the train_full / train_sampled workloads.
//
// Untraced part: dataset + PrepareExperiment + model construction (timed as
// setup), then the shipped loop — Trainer::Fit or MiniBatchTrainer::Fit,
// one epoch per call so each epoch is timed on its own — at --threads
// worker threads and again at 1 thread, from the same seed. The two loss
// curves must be bitwise equal.
//
// Traced part (--trace 1): a replica of the same loop, made of the public
// calls Fit makes in the order it makes them, with a span around each
// layer call and the nn profiler on. Its losses must equal Fit's bitwise,
// which shows the spans time the same work.
#include "train_bench.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "models/subgraph_view.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/profiler.h"
#include "sample/neighbor_sampler.h"
#include "train/batch_assembler.h"
#include "train/experiment.h"
#include "train/minibatch.h"
#include "train/trainer.h"
#include "util.h"

namespace perfbench {
namespace {

using namespace prim;

constexpr int kPois = 6000;             // bench_ops Figure 4 graph.
constexpr int kRelationsPerPoi = 8;
constexpr int kRelationTypes = 2;
constexpr double kTrainFraction = 0.95;  // All training edges pass messages.
constexpr int kBatchSize = 512;
const std::vector<int> kFanout = {10, 5};

// The bench_ops "tiny" model: the graph, not the model, sets the cost.
train::ExperimentConfig TinyConfig(uint64_t seed) {
  train::ExperimentConfig c;
  c.model.dim = 16;
  c.model.tax_dim = 8;
  c.model.layers = 2;
  c.model.heads = 2;
  c.trainer.epochs = 1;  // One epoch per Fit call; see file comment.
  c.trainer.max_positives_per_epoch = 1500;
  c.trainer.lr = 0.02f;
  c.trainer.negatives_per_positive = 2;
  c.trainer.seed = seed;
  c.validation_non_edges = 300;
  c.test_non_edges = 800;
  c.message_graph_fraction = 1.0;
  c.seed = seed;
  c.SyncDims();
  return c;
}

struct Setup {
  data::PoiDataset dataset;
  train::ExperimentData data;
};

std::unique_ptr<models::RelationModel> MakePrim(const Setup& s,
                                                const train::ExperimentConfig& c) {
  Rng rng(c.seed * 7919 + 13);
  return train::MakeModel("PRIM", s.data.ctx, c, rng, nullptr);
}

train::MiniBatchConfig SampledConfig(const train::ExperimentConfig& c) {
  train::MiniBatchConfig mb;
  mb.train = c.trainer;
  mb.batch_size = kBatchSize;
  mb.fanout = kFanout;
  mb.pipeline = true;
  return mb;
}

struct FitRun {
  std::vector<double> epoch_ms;  // Timed epochs only.
  std::vector<float> losses;     // Every step, warm-up epoch included.
  double minflt_per_epoch = 0.0;
  double cpu_per_wall = 0.0;
};

// The shipped loop: `epochs` timed Fit calls after one warm-up call.
FitRun RunFit(const Setup& s, const train::ExperimentConfig& c, bool sampled,
              int threads, int epochs) {
  SetNumWorkerThreads(threads);
  auto model = MakePrim(s, c);
  std::unique_ptr<train::Trainer> full;
  std::unique_ptr<train::MiniBatchTrainer> mini;
  if (sampled) {
    mini = std::make_unique<train::MiniBatchTrainer>(
        *model, s.data.split.train, *s.data.full_graph, SampledConfig(c));
  } else {
    full = std::make_unique<train::Trainer>(*model, s.data.split.train,
                                            *s.data.full_graph, c.trainer);
  }
  FitRun run;
  auto fit = [&] {
    const train::TrainResult r = sampled ? mini->Fit(nullptr) : full->Fit(nullptr);
    run.losses.insert(run.losses.end(), r.loss_curve.begin(), r.loss_curve.end());
  };
  fit();  // Warm-up: pool start, allocator, first-touch of the graph.
  const ProcCounters before = ReadProcCounters(0);
  const auto t_all = Clock::now();
  for (int e = 0; e < epochs; ++e) {
    const auto t0 = Clock::now();
    fit();
    run.epoch_ms.push_back(SecondsSince(t0) * 1e3);
  }
  const double wall = SecondsSince(t_all);
  const ProcCounters after = ReadProcCounters(0);
  run.minflt_per_epoch = (after.minflt - before.minflt) / epochs;
  run.cpu_per_wall =
      (after.user_s + after.sys_s - before.user_s - before.sys_s) / wall;
  SetNumWorkerThreads(0);
  return run;
}

// Per-epoch span totals of the traced replica, in ms unless noted.
struct Spans {
  double epoch = 0, assemble = 0, sample = 0, view = 0, encode = 0,
         score = 0, loss = 0, backward = 0, optimizer = 0;
  double batches = 0, nodes = 0, edges = 0;  // Sampled views only.
};

class SpanTimer {
 public:
  explicit SpanTimer(double* acc) : acc_(acc), t0_(Clock::now()) {}
  ~SpanTimer() { *acc_ += SecondsSince(t0_) * 1e3; }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  double* acc_;
  Clock::time_point t0_;
};

struct Prepared {
  train::TripleBatch triples;
  models::SubgraphViewData view;
  models::PairBatch local_pairs;
};

// Replays Fit's calls for `fit_calls` one-epoch Fit calls after the warm-up,
// timing each layer. Returns every step's loss, warm-up included, so the
// curve lines up with RunFit's.
std::vector<float> RunReplica(const Setup& s, const train::ExperimentConfig& c,
                              bool sampled, int threads, int fit_calls,
                              std::vector<Spans>* spans) {
  SetNumWorkerThreads(threads);
  auto model = MakePrim(s, c);
  const models::ModelContext& ctx = model->context();
  const train::TrainConfig& tc = c.trainer;
  train::BatchAssembler assembler(ctx, s.data.split.train, *s.data.full_graph,
                                  tc);
  nn::Adam adam(model->Parameters(), tc.lr, 0.9f, 0.999f, 1e-8f,
                tc.weight_decay);
  sample::NeighborSampler sampler(
      *ctx.train_graph,
      sample::SamplerConfig::Uniform(kFanout, ctx.num_relations));
  Rng sample_rng(tc.seed * 0x9E3779B97F4A7C15ULL + 1);
  const int num_batches =
      sampled ? std::max(1, (assembler.positives_per_epoch() + kBatchSize - 1) /
                                kBatchSize)
              : 1;
  int cursor = 0;
  std::vector<float> losses;

  // MiniBatchTrainer::Produce, call for call.
  auto produce = [&](Spans& sp) {
    Prepared p;
    if (cursor == 0) assembler.BeginEpoch();
    const int num_pos = assembler.positives_per_epoch();
    const int begin = std::min(num_pos, cursor * kBatchSize);
    const int end = std::min(num_pos, begin + kBatchSize);
    const int num_phi = assembler.phi_per_epoch();
    const int phi_begin =
        static_cast<int>(static_cast<int64_t>(num_phi) * cursor / num_batches);
    const int phi_end = static_cast<int>(static_cast<int64_t>(num_phi) *
                                         (cursor + 1) / num_batches);
    cursor = (cursor + 1) % num_batches;
    {
      SpanTimer t(&sp.assemble);
      p.triples = assembler.Assemble(begin, end, phi_end - phi_begin);
    }
    std::vector<int> roots(p.triples.pairs.src);
    roots.insert(roots.end(), p.triples.pairs.dst.begin(),
                 p.triples.pairs.dst.end());
    if (model->uses_spatial_context() &&
        ctx.spatial_dst_start.size() == static_cast<size_t>(ctx.num_nodes) + 1) {
      const size_t endpoints = roots.size();
      for (size_t i = 0; i < endpoints; ++i) {
        const int u = roots[i];
        for (int e = ctx.spatial_dst_start[u]; e < ctx.spatial_dst_start[u + 1];
             ++e)
          roots.push_back(ctx.spatial.src[e]);
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    sample::SampledSubgraph sub;
    {
      SpanTimer t(&sp.sample);
      sub = sampler.Sample(roots, sample_rng);
    }
    {
      SpanTimer t(&sp.view);
      p.view = models::BuildSubgraphView(ctx, sub);
    }
    sp.nodes += sub.num_nodes();
    for (const auto& el : sub.rel_edges) sp.edges += el.size();
    for (int i = 0; i < p.triples.pairs.size(); ++i)
      p.local_pairs.Add(sub.LocalOf(p.triples.pairs.src[i]),
                        sub.LocalOf(p.triples.pairs.dst[i]),
                        p.triples.pairs.dist_km[i]);
    return p;
  };

  auto step = [&](const train::TripleBatch& batch, const models::PairBatch& pairs,
                  Spans& sp) {
    nn::Tensor loss;
    {
      SpanTimer t(&sp.optimizer);
      adam.ZeroGrad();
    }
    nn::Tensor h, logits;
    {
      SpanTimer t(&sp.encode);
      h = model->EncodeNodes(/*training=*/true);
    }
    {
      SpanTimer t(&sp.score);
      logits = model->ScorePairs(h, pairs);
    }
    {
      SpanTimer t(&sp.loss);
      loss = nn::SoftmaxCrossEntropy(logits, batch.classes);
    }
    {
      SpanTimer t(&sp.backward);
      loss.Backward();
    }
    {
      SpanTimer t(&sp.optimizer);
      adam.ClipGradNorm(tc.grad_clip);
      adam.Step();
    }
    losses.push_back(loss.item());
    sp.batches += 1;
  };

  for (int call = 0; call <= fit_calls; ++call) {
    Spans sp;
    const auto t0 = Clock::now();
    if (sampled) {
      // Fit schedules one batch ahead and drops the last prefetch when it
      // returns; the serial replica draws the same batches in that order.
      Prepared cur = produce(sp);
      for (int b = 0; b < num_batches; ++b) {
        Prepared next = produce(sp);
        const models::GraphView gv = cur.view.View(ctx);
        models::ScopedGraphView scope(ctx, gv);
        step(cur.triples, cur.local_pairs, sp);
        cur = std::move(next);
      }
    } else {
      assembler.BeginEpoch();
      train::TripleBatch batch;
      {
        SpanTimer t(&sp.assemble);
        batch = assembler.Assemble(0, assembler.positives_per_epoch(),
                                   assembler.phi_per_epoch());
      }
      step(batch, batch.pairs, sp);
    }
    sp.epoch = SecondsSince(t0) * 1e3;
    if (call == 0) {
      nn::ResetProfiler();  // The warm-up call is not traced.
      nn::SetProfilerEnabled(true);
    } else {
      spans->push_back(sp);
    }
  }
  nn::SetProfilerEnabled(false);
  SetNumWorkerThreads(0);
  return losses;
}

std::vector<std::string> Bits(const std::vector<float>& v) {
  std::vector<std::string> out;
  for (float x : v) out.push_back(FloatBits(x));
  return out;
}

double MedianOf(const std::vector<Spans>& spans, double Spans::*field) {
  std::vector<double> v;
  for (const Spans& s : spans) v.push_back(s.*field);
  return Median(v);
}

}  // namespace

// Flags: --mode full|sampled, --seed N, --threads N (the nproc run),
// --epochs N (timed epochs per thread count), --trace 0|1.
int RunTrain(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string mode = flags.Str("mode", "full");
  if (mode != "full" && mode != "sampled") {
    std::fprintf(stderr, "perfbench train: --mode must be full or sampled\n");
    return 2;
  }
  const bool sampled = mode == "sampled";
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const int threads = static_cast<int>(flags.Int("threads", 4));
  const int epochs = static_cast<int>(flags.Int("epochs", 8));
  const bool trace = flags.Int("trace", 0) != 0;

  JsonOut out;

  const train::ExperimentConfig config = TinyConfig(seed);
  const auto t_setup = Clock::now();
  Setup s;
  s.dataset = data::GenerateScalabilityDataset(kPois, kRelationsPerPoi,
                                               kRelationTypes, seed);
  s.data = train::PrepareExperiment(s.dataset, kTrainFraction, config);
  { auto model = MakePrim(s, config); }  // Each RunFit builds its own.
  out.Num("setup_s", SecondsSince(t_setup));

  const FitRun par = RunFit(s, config, sampled, threads, epochs);
  const FitRun one = RunFit(s, config, sampled, 1, epochs);
  out.List("epoch_ms", par.epoch_ms);
  out.List("epoch_ms_1t", one.epoch_ms);
  out.StrList("loss_bits", Bits(par.losses));
  out.Num("loss_bitwise_1t", par.losses == one.losses ? 1 : 0);
  out.Num("nn.minflt_per_epoch", par.minflt_per_epoch);
  out.Num("common.cpu_per_wall", par.cpu_per_wall);

  if (trace) {
    const int calls = std::min(epochs, 5);
    std::vector<Spans> spans;
    const std::vector<float> replica =
        RunReplica(s, config, sampled, threads, calls, &spans);
    const bool match = !replica.empty() && replica.size() <= par.losses.size() &&
                       std::equal(replica.begin(), replica.end(),
                                  par.losses.begin());
    out.Num("replica_loss_match", match ? 1 : 0);
    out.Num("trace.epoch_ms", MedianOf(spans, &Spans::epoch));
    out.Num("train.assemble_ms", MedianOf(spans, &Spans::assemble));
    const double batches = std::max(1.0, MedianOf(spans, &Spans::batches));
    out.Num("sample.sample_ms", MedianOf(spans, &Spans::sample) / batches);
    out.Num("sample.view_ms", MedianOf(spans, &Spans::view) / batches);
    out.Num("sample.nodes_per_batch", MedianOf(spans, &Spans::nodes) / batches);
    out.Num("sample.edges_per_batch", MedianOf(spans, &Spans::edges) / batches);
    out.Num("models.encode_ms", MedianOf(spans, &Spans::encode));
    out.Num("models.score_ms", MedianOf(spans, &Spans::score));
    out.Num("nn.forward_ms",
            MedianOf(spans, &Spans::encode) + MedianOf(spans, &Spans::score));
    out.Num("nn.loss_ms", MedianOf(spans, &Spans::loss));
    out.Num("nn.backward_ms", MedianOf(spans, &Spans::backward));
    out.Num("nn.optimizer_ms", MedianOf(spans, &Spans::optimizer));
    double covered = 0.0;
    for (double Spans::*f : {&Spans::assemble, &Spans::sample, &Spans::view,
                             &Spans::encode, &Spans::score, &Spans::loss,
                             &Spans::backward, &Spans::optimizer})
      covered += MedianOf(spans, f);
    out.Num("trace.coverage", covered / MedianOf(spans, &Spans::epoch));

    const double per_epoch = 1.0 / static_cast<double>(calls);
    double flops = 0.0, bytes = 0.0;
    const std::vector<std::string> ops = {"FusedGammaSegSum", "FusedAttnScore",
                                          "MatMul", "FusedEdgeDot",
                                          "SegmentSoftmax", "Tanh"};
    std::vector<double> fwd(ops.size()), bwd(ops.size()), op_calls(ops.size());
    for (const nn::OpProfile& p : nn::ProfilerSnapshot()) {
      flops += static_cast<double>(p.flops);
      bytes += static_cast<double>(p.bytes);
      for (size_t o = 0; o < ops.size(); ++o) {
        if (p.name == ops[o]) {
          fwd[o] += p.seconds * 1e3 * per_epoch;
          op_calls[o] += static_cast<double>(p.calls) * per_epoch;
        } else if (p.name == ops[o] + "/bwd") {
          bwd[o] += p.seconds * 1e3 * per_epoch;
        }
      }
    }
    for (size_t o = 0; o < ops.size(); ++o) {
      out.Num("nn.op." + ops[o] + ".fwd_ms", fwd[o]);
      out.Num("nn.op." + ops[o] + ".bwd_ms", bwd[o]);
      out.Num("nn.op." + ops[o] + ".calls", op_calls[o]);
    }
    out.Num("nn.gflop_per_epoch", flops * per_epoch / 1e9);
    out.Num("nn.gb_moved_per_epoch", bytes * per_epoch / 1e9);
  }
  out.Num("peak_rss_mb", PeakRssMb(0));
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace perfbench
