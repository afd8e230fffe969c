#include "machine/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "util/assert.h"

namespace sbs::machine {

int MachineConfig::num_threads() const {
  // An int times a 32-bit fan-out stays below 2^63.
  std::int64_t p = 1;
  for (const auto& lvl : levels) {
    p *= lvl.fanout;
    SBS_CHECK_MSG(p <= std::numeric_limits<int>::max(),
                  "config: the thread count (product of fan_outs) overflows");
  }
  return static_cast<int>(p);
}

int MachineConfig::num_cache_levels() const {
  return static_cast<int>(levels.size()) - 1;
}

int MachineConfig::leaf_position(int thread_id) const {
  SBS_ASSERT(thread_id >= 0 && thread_id < num_threads());
  if (core_map.empty()) return thread_id;
  return core_map[static_cast<std::size_t>(thread_id)];
}

void MachineConfig::validate() const {
  SBS_CHECK_MSG(levels.size() >= 2, "need memory plus at least one cache");
  SBS_CHECK_MSG(levels[0].size == 0, "levels[0] is memory and must have size 0");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelSpec& lvl = levels[i];
    SBS_CHECK_MSG(lvl.fanout >= 1, "every level needs fanout >= 1");
    SBS_CHECK_MSG(lvl.line > 0 && (lvl.line & (lvl.line - 1)) == 0,
                  "line size must be a power of two");
    if (i >= 1) {
      SBS_CHECK_MSG(lvl.size > 0, "cache sizes must be positive");
      if (i >= 2) {
        SBS_CHECK_MSG(lvl.size < levels[i - 1].size,
                      "cache sizes must strictly decrease going down");
      }
      SBS_CHECK_MSG(levels[i - 1].line % lvl.line == 0,
                    "parent line size must be a multiple of child line size");
      if (lvl.assoc > 0) {
        SBS_CHECK_MSG(lvl.size % (static_cast<std::uint64_t>(lvl.line) *
                                  lvl.assoc) == 0,
                      "cache size must be divisible by line*assoc");
      } else {
        SBS_CHECK_MSG(lvl.size % lvl.line == 0,
                      "cache size must be divisible by line size");
      }
    }
  }
  const int p = num_threads();
  if (!core_map.empty()) {
    SBS_CHECK_MSG(static_cast<int>(core_map.size()) == p,
                  "core_map must have one entry per thread");
    std::vector<int> sorted = core_map;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < p; ++i)
      SBS_CHECK_MSG(sorted[static_cast<std::size_t>(i)] == i,
                    "core_map must be a permutation of 0..P-1");
  }
  SBS_CHECK(ghz > 0);
  SBS_CHECK(socket_bytes_per_cycle > 0);
  SBS_CHECK(page_bytes > 0 && (page_bytes & (page_bytes - 1)) == 0);
}

namespace {

std::vector<int> Fig4CoreMap() {
  return {0, 4, 8,  12, 16, 20, 24, 28, 2, 6, 10, 14, 18, 22, 26, 30,
          1, 5, 9,  13, 17, 21, 25, 29, 3, 7, 11, 15, 19, 23, 27, 31};
}

void NameLevels(MachineConfig& cfg) {
  const int ncaches = cfg.num_cache_levels();
  cfg.levels[0].name = "mem";
  for (int i = 1; i <= ncaches; ++i) {
    cfg.levels[static_cast<std::size_t>(i)].name =
        "L" + std::to_string(ncaches - i + 1);
  }
}

/// Default per-level hit costs when a config does not specify them: 2 cycles
/// at the innermost cache, roughly quadrupling per level going out.
void DefaultHitCycles(MachineConfig& cfg) {
  std::uint32_t c = 2;
  for (std::size_t i = cfg.levels.size(); i-- > 1;) {
    if (cfg.levels[i].hit_cycles == 0) cfg.levels[i].hit_cycles = c;
    c = std::min<std::uint32_t>(c * 4, 80);
  }
}

/// The paper's machine, with options:
///  - scale: divide every cache size by this power of two. The "_s8" scaled
///    preset (÷8: 3 MB L3 / 32 KB L2 / 4 KB L1) keeps all the experiment's
///    dimensionless ratios (8 cores per L3, ~7× data-to-L3 at the default
///    problem sizes, σ, µ) while letting default bench runs finish in
///    seconds; --full uses scale 1 with the paper's problem sizes.
///  - hyperthreaded: two hardware threads per core (64 total).
///  - cores_per_socket: Fig. 7's partial-socket machines (4×1 ... 4×8).
///  - fig4_sizes: the literal 12 MB L3 printed in the paper's Fig. 4.
MachineConfig Xeon7560(std::string name, int scale, bool hyperthreaded,
                       int cores_per_socket, bool fig4_sizes) {
  MachineConfig cfg;
  cfg.name = std::move(name);
  cfg.ghz = 2.27;
  const std::uint64_t l3_full = fig4_sizes ? 3ull * (1ull << 22)  // Fig. 4
                                           : 24ull << 20;  // 24 MB per §5.2
  const std::uint64_t scale_u = static_cast<std::uint64_t>(scale);
  cfg.levels = {
      {"mem", 0, 64, 4, 0, 0},
      {"L3", l3_full / scale_u, 64, static_cast<std::uint32_t>(cores_per_socket),
       24, 45},
      {"L2", (1ull << 18) / scale_u, 64, 1, 8, 10},
      {"L1", (1ull << 15) / scale_u, 64, hyperthreaded ? 2u : 1u, 8, 2},
  };
  // Keep the page→socket interleave granularity proportional to the data
  // sizes the scaled machine is meant for.
  if (scale > 1) cfg.page_bytes = (2ull << 20) / scale_u;
  if (cores_per_socket == 8 && !hyperthreaded) {
    cfg.core_map = Fig4CoreMap();
  } else if (cores_per_socket == 8 && hyperthreaded) {
    // Linux numbers hyperthread siblings as cpu and cpu+32; in the tree the
    // two threads of a core are adjacent leaves.
    const std::vector<int> fig4 = Fig4CoreMap();
    cfg.core_map.resize(64);
    for (int i = 0; i < 32; ++i) {
      cfg.core_map[static_cast<std::size_t>(i)] =
          fig4[static_cast<std::size_t>(i)] * 2;
      cfg.core_map[static_cast<std::size_t>(i + 32)] =
          fig4[static_cast<std::size_t>(i)] * 2 + 1;
    }
  }
  return cfg;
}

MachineConfig Mini() {
  MachineConfig cfg;
  cfg.name = "mini";
  cfg.ghz = 1.0;
  cfg.levels = {
      {"mem", 0, 64, 2, 0, 0},
      {"L2", 1ull << 16, 64, 2, 4, 10},
      {"L1", 1ull << 12, 64, 1, 4, 2},
  };
  cfg.dram_latency_cycles = 100;
  cfg.socket_bytes_per_cycle = 8.0;
  cfg.page_bytes = 1ull << 12;
  return cfg;
}

MachineConfig MiniDeep() {
  MachineConfig cfg;
  cfg.name = "mini_deep";
  cfg.ghz = 1.0;
  cfg.levels = {
      {"mem", 0, 64, 2, 0, 0},
      {"L3", 1ull << 18, 64, 2, 8, 40},
      {"L2", 1ull << 15, 64, 1, 4, 10},
      {"L1", 1ull << 12, 64, 2, 4, 2},
  };
  cfg.dram_latency_cycles = 100;
  cfg.socket_bytes_per_cycle = 8.0;
  cfg.page_bytes = 1ull << 12;
  return cfg;
}

/// A xeon7560 preset name, parsed by the suffix grammar
/// xeon7560[_fig4][_s<scale>][_4x<cores>][_ht].
struct XeonVariant {
  int scale = 1;
  int cores = 8;
  bool ht = false;
  bool fig4 = false;
};

/// Drops the decimal number at the front of `rest` and returns it; a
/// missing or out-of-range number fails with the preset's name.
int TakeNumber(std::string& rest, const std::string& name) {
  int value = 0;
  const auto [end, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), value);
  SBS_CHECK_MSG(ec == std::errc(),
                ("missing or out-of-range number in preset " + name).c_str());
  rest.erase(0, static_cast<std::size_t>(end - rest.data()));
  return value;
}

XeonVariant ParseXeon(const std::string& name) {
  SBS_CHECK_MSG(name.rfind("xeon7560", 0) == 0,
                ("unknown machine preset: " + name).c_str());
  std::string rest = name.substr(std::string("xeon7560").size());
  XeonVariant v;
  while (!rest.empty()) {
    SBS_CHECK_MSG(rest[0] == '_', ("unknown machine preset: " + name).c_str());
    rest.erase(0, 1);
    if (rest.rfind("fig4", 0) == 0) {
      v.fig4 = true;
      rest.erase(0, 4);
    } else if (rest.rfind("ht", 0) == 0) {
      v.ht = true;
      rest.erase(0, 2);
    } else if (rest.rfind("s", 0) == 0) {
      rest.erase(0, 1);
      v.scale = TakeNumber(rest, name);
      SBS_CHECK_MSG(v.scale >= 1 && (v.scale & (v.scale - 1)) == 0,
                    "machine scale must be a power of two");
    } else if (rest.rfind("4x", 0) == 0) {
      rest.erase(0, 2);
      v.cores = TakeNumber(rest, name);
      SBS_CHECK_MSG(v.cores >= 1 && v.cores <= 8,
                    "cores per socket must be in 1..8");
    } else {
      SBS_CHECK_MSG(false, ("unknown machine preset: " + name).c_str());
    }
  }
  return v;
}

}  // namespace

MachineConfig Preset(const std::string& name) {
  MachineConfig cfg;
  if (name == "mini") {
    cfg = Mini();
  } else if (name == "mini_deep") {
    cfg = MiniDeep();
  } else {
    const XeonVariant v = ParseXeon(name);
    cfg = Xeon7560(name, v.scale, v.ht, v.cores, v.fig4);
  }
  DefaultHitCycles(cfg);
  cfg.validate();
  return cfg;
}

int PresetScale(const std::string& name) {
  if (name == "mini" || name == "mini_deep" || name == "custom") return 1;
  return ParseXeon(name).scale;
}

std::vector<std::string> PresetNames() {
  return {"xeon7560",        "xeon7560_ht",    "xeon7560_fig4",
          "xeon7560_4x1",    "xeon7560_4x2",   "xeon7560_4x4",
          "xeon7560_s8",     "xeon7560_s8_ht", "xeon7560_s8_4x2",
          "mini",            "mini_deep"};
}

// ---------------------------------------------------------------------------
// Fig. 4 syntax parser
// ---------------------------------------------------------------------------
namespace {

struct Lexer {
  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;  ///< nesting of parentheses and unary minus

  void skip_ws() {
    while (pos < text.size()) {
      if (std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      } else if (text.compare(pos, 2, "//") == 0) {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else if (text.compare(pos, 2, "/*") == 0) {
        pos += 2;
        while (pos + 1 < text.size() && text.compare(pos, 2, "*/") != 0) ++pos;
        pos = std::min(pos + 2, text.size());
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_ws();
    return pos >= text.size();
  }

  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consume_str(const char* s) {
    skip_ws();
    const std::size_t n = std::string(s).size();
    if (text.compare(pos, n, s) == 0) {
      pos += n;
      return true;
    }
    return false;
  }

  std::string ident() {
    skip_ws();
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_')) {
      ++pos;
    }
    return text.substr(start, pos - start);
  }
};

// Integer/real expression grammar: shift > additive > multiplicative > unary.
double ParseExpr(Lexer& lx);

/// Bounds the parser's recursion, so deep nesting fails instead of
/// overflowing the stack.
constexpr int kMaxNesting = 64;

double ParseNumber(Lexer& lx) {
  lx.skip_ws();
  std::size_t start = lx.pos;
  while (lx.pos < lx.text.size() &&
         (std::isdigit(static_cast<unsigned char>(lx.text[lx.pos])) ||
          lx.text[lx.pos] == '.' || lx.text[lx.pos] == 'x' ||
          lx.text[lx.pos] == 'X' ||
          std::isxdigit(static_cast<unsigned char>(lx.text[lx.pos])))) {
    ++lx.pos;
  }
  SBS_CHECK_MSG(lx.pos > start, "config: expected a number");
  const std::string tok = lx.text.substr(start, lx.pos - start);
  // A token the conversion does not consume whole is malformed; errno
  // reports one out of range.
  char* end = nullptr;
  errno = 0;
  const double v =
      tok.find('.') != std::string::npos
          ? std::strtod(tok.c_str(), &end)
          : static_cast<double>(std::strtoll(tok.c_str(), &end, 0));
  SBS_CHECK_MSG(errno == 0 && end == tok.c_str() + tok.size(),
                ("config: malformed or out-of-range number '" + tok + "'")
                    .c_str());
  return v;
}

double ParsePrimary(Lexer& lx) {
  SBS_CHECK_MSG(++lx.depth <= kMaxNesting,
                "config: expression nested too deeply");
  double v;
  if (lx.consume('(')) {
    v = ParseExpr(lx);
    SBS_CHECK_MSG(lx.consume(')'), "config: expected ')'");
  } else if (lx.consume('-')) {
    v = -ParsePrimary(lx);
  } else {
    v = ParseNumber(lx);
  }
  --lx.depth;
  return v;
}

double ParseMul(Lexer& lx) {
  double v = ParsePrimary(lx);
  while (true) {
    if (lx.consume('*')) {
      v *= ParsePrimary(lx);
    } else if (lx.peek() == '/' && lx.text.compare(lx.pos, 2, "//") != 0) {
      lx.consume('/');
      v /= ParsePrimary(lx);
    } else {
      break;
    }
  }
  return v;
}

double ParseAdd(Lexer& lx) {
  double v = ParseMul(lx);
  while (true) {
    if (lx.consume('+')) {
      v += ParseMul(lx);
    } else if (lx.peek() == '-') {
      lx.consume('-');
      v -= ParseMul(lx);
    } else {
      break;
    }
  }
  return v;
}

double ParseExpr(Lexer& lx) {
  double v = ParseAdd(lx);
  while (lx.consume_str("<<")) {
    const double shift = ParseAdd(lx);
    SBS_CHECK_MSG(shift >= 0 && shift <= 63 && shift == std::trunc(shift),
                  "config: a shift amount must be an integer in [0, 63]");
    v = std::ldexp(std::trunc(v), static_cast<int>(shift));
  }
  return v;
}

std::vector<double> ParseValueOrList(Lexer& lx) {
  std::vector<double> vals;
  if (lx.consume('{')) {
    if (!lx.consume('}')) {
      do {
        vals.push_back(ParseExpr(lx));
      } while (lx.consume(','));
      SBS_CHECK_MSG(lx.consume('}'), "config: expected '}'");
    }
  } else {
    vals.push_back(ParseExpr(lx));
  }
  return vals;
}

/// `v` as a value of the integral field type T: it must be integral and in
/// T's range (NaN and infinities fail both tests).
template <class T>
T ToField(double v, const std::string& key) {
  SBS_CHECK_MSG(
      v == std::trunc(v) &&
          v >= static_cast<double>(std::numeric_limits<T>::lowest()) &&
          v < static_cast<double>(std::numeric_limits<T>::max()) + 1.0,
      ("config: " + key + " needs integers in its field's range").c_str());
  return static_cast<T>(v);
}

bool IsTypeWord(const std::string& w) {
  return w == "int" || w == "long" || w == "unsigned" || w == "double" ||
         w == "float" || w == "uint64_t" || w == "size_t";
}

}  // namespace

MachineConfig ParseConfig(const std::string& text) {
  Lexer lx{text};
  std::int64_t num_procs = -1;
  std::int64_t num_levels = -1;
  std::vector<double> fan_outs, sizes, block_sizes, assoc, hit_cycles, map;
  MachineConfig cfg;
  cfg.name = "custom";

  while (!lx.eof()) {
    // [type words] name [ '[' ... ']' ] '=' value-or-list ';'
    std::string word = lx.ident();
    SBS_CHECK_MSG(!word.empty(), "config: expected identifier");
    while (IsTypeWord(word)) {
      word = lx.ident();
      SBS_CHECK_MSG(!word.empty(), "config: expected identifier after type");
    }
    if (lx.consume('[')) {  // skip declared extent, we size from the list
      while (lx.peek() != ']' && !lx.eof()) lx.pos++;
      SBS_CHECK_MSG(lx.consume(']'), "config: expected ']'");
    }
    SBS_CHECK_MSG(lx.consume('='), "config: expected '='");
    std::vector<double> vals = ParseValueOrList(lx);
    SBS_CHECK_MSG(lx.consume(';'), "config: expected ';'");

    auto scalar = [&]() -> double {
      SBS_CHECK_MSG(vals.size() == 1, "config: expected a scalar value");
      return vals[0];
    };
    if (word == "num_procs") {
      num_procs = ToField<int>(scalar(), word);
    } else if (word == "num_levels") {
      num_levels = ToField<int>(scalar(), word);
    } else if (word == "fan_outs") {
      fan_outs = vals;
    } else if (word == "sizes") {
      sizes = vals;
    } else if (word == "block_sizes") {
      block_sizes = vals;
    } else if (word == "assoc") {
      assoc = vals;
    } else if (word == "hit_cycles") {
      hit_cycles = vals;
    } else if (word == "map") {
      map = vals;
    } else if (word == "ghz") {
      cfg.ghz = scalar();
    } else if (word == "dram_latency") {
      cfg.dram_latency_cycles = ToField<std::uint32_t>(scalar(), word);
    } else if (word == "socket_bytes_per_cycle") {
      cfg.socket_bytes_per_cycle = scalar();
    } else if (word == "page_bytes") {
      cfg.page_bytes = ToField<std::uint64_t>(scalar(), word);
    } else if (word == "sched_op_cycles") {
      cfg.sched_op_cycles = ToField<std::uint32_t>(scalar(), word);
    } else if (word == "fork_join_cycles") {
      cfg.fork_join_cycles = ToField<std::uint32_t>(scalar(), word);
    } else if (word == "idle_poll_cycles") {
      cfg.idle_poll_cycles = ToField<std::uint32_t>(scalar(), word);
    } else {
      SBS_CHECK_MSG(false, ("config: unknown key '" + word + "'").c_str());
    }
  }

  SBS_CHECK_MSG(num_levels >= 2, "config: num_levels must be >= 2");
  SBS_CHECK_MSG(static_cast<std::int64_t>(fan_outs.size()) == num_levels,
                "config: fan_outs must have num_levels entries");
  SBS_CHECK_MSG(static_cast<std::int64_t>(sizes.size()) == num_levels,
                "config: sizes must have num_levels entries");
  SBS_CHECK_MSG(static_cast<std::int64_t>(block_sizes.size()) == num_levels,
                "config: block_sizes must have num_levels entries");

  cfg.levels.resize(static_cast<std::size_t>(num_levels));
  for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
    LevelSpec& lvl = cfg.levels[i];
    lvl.size = ToField<std::uint64_t>(sizes[i], "sizes");
    lvl.line = ToField<std::uint32_t>(block_sizes[i], "block_sizes");
    lvl.fanout = ToField<std::uint32_t>(fan_outs[i], "fan_outs");
    lvl.assoc =
        i < assoc.size() ? ToField<std::uint32_t>(assoc[i], "assoc") : 8;
    lvl.hit_cycles = i < hit_cycles.size()
                         ? ToField<std::uint32_t>(hit_cycles[i], "hit_cycles")
                         : 0;
  }
  cfg.levels[0].assoc = 0;
  cfg.levels[0].hit_cycles = 0;
  NameLevels(cfg);
  DefaultHitCycles(cfg);

  for (double m : map) cfg.core_map.push_back(ToField<int>(m, "map"));
  if (num_procs >= 0) {
    SBS_CHECK_MSG(num_procs == cfg.num_threads(),
                  "config: num_procs does not match product of fan_outs");
  }
  cfg.validate();
  return cfg;
}

MachineConfig LoadConfigFile(const std::string& path) {
  std::ifstream f(path);
  SBS_CHECK_MSG(f.good(), ("cannot open machine config: " + path).c_str());
  std::stringstream ss;
  ss << f.rdbuf();
  return ParseConfig(ss.str());
}

std::string ToConfigText(const MachineConfig& cfg) {
  std::ostringstream out;
  const std::size_t n = cfg.levels.size();
  out << "int num_procs=" << cfg.num_threads() << ";\n";
  out << "int num_levels = " << n << ";\n";
  auto emit_array = [&](const char* type, const char* name, auto getter) {
    out << type << " " << name << "[" << n << "] = {";
    for (std::size_t i = 0; i < n; ++i)
      out << (i ? "," : "") << getter(cfg.levels[i]);
    out << "};\n";
  };
  emit_array("int", "fan_outs", [](const LevelSpec& l) { return l.fanout; });
  emit_array("long long int", "sizes",
             [](const LevelSpec& l) { return l.size; });
  emit_array("int", "block_sizes", [](const LevelSpec& l) { return l.line; });
  emit_array("int", "assoc", [](const LevelSpec& l) { return l.assoc; });
  emit_array("int", "hit_cycles",
             [](const LevelSpec& l) { return l.hit_cycles; });
  if (!cfg.core_map.empty()) {
    out << "int map[" << cfg.core_map.size() << "] = {";
    for (std::size_t i = 0; i < cfg.core_map.size(); ++i)
      out << (i ? "," : "") << cfg.core_map[i];
    out << "};\n";
  }
  out << "double ghz = " << cfg.ghz << ";\n";
  out << "int dram_latency = " << cfg.dram_latency_cycles << ";\n";
  out << "double socket_bytes_per_cycle = " << cfg.socket_bytes_per_cycle
      << ";\n";
  out << "long long int page_bytes = " << cfg.page_bytes << ";\n";
  return out.str();
}

}  // namespace sbs::machine
