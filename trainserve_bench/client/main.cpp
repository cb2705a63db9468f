// tsclient — the train→serve benchmark's client.
//
//   tsclient gen    --rows M --cols N --nnz Z ... --seed S --out FILE
//   tsclient rmse   --ratings FILE --model FILE --seed S --test FRAC
//   tsclient serve  --phase open|sat --model FILE --ratings FILE ...
//   tsclient layers --ratings FILE --model FILE ... (traced run only)
//
// Every subcommand prints one JSON object as its last stdout line and exits
// 0; a thrown error prints the message to stderr and exits 1.
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "client.hpp"
#include "common/rng.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "metrics/rmse.hpp"
#include "sparse/split.hpp"

namespace tsb {

int cmd_rmse(const Args& args) {
  using namespace cumf;
  const RatingsCoo all =
      load_ratings_file(args.str("ratings"), LoaderOptions{});
  Rng rng(static_cast<std::uint64_t>(args.num("seed")));
  const TrainTestSplit split = split_holdout(all, args.num("test"), rng);
  const FactorModel model = read_model_file(args.str("model"));
  const double value = rmse(split.test, model.x, model.theta);
  // cumf_train prints its RMSE series through an ostream at the default
  // precision; rendering the same way makes the comparison exact.
  std::ostringstream printed;
  printed << value;
  std::printf("%s\n", Json()
                          .set("rmse", value)
                          .set("rmse_printed", printed.str())
                          .set("test_nnz", static_cast<double>(split.test.nnz()))
                          .str()
                          .c_str());
  return 0;
}

}  // namespace tsb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: tsclient gen|rmse|serve|layers --key value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const tsb::Args args(argc, argv, 2);
    if (cmd == "gen") {
      return tsb::cmd_gen(args);
    }
    if (cmd == "rmse") {
      return tsb::cmd_rmse(args);
    }
    if (cmd == "serve") {
      return tsb::cmd_serve(args);
    }
    if (cmd == "layers") {
      return tsb::cmd_layers(args);
    }
    std::fprintf(stderr, "tsclient: unknown subcommand '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsclient %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
