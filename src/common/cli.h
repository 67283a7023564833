// Tiny command-line flag reader for the example/bench executables.
// Flags look like: --arch terapool --size 4096 --verbose
//
// Every getter records the flag name it was asked about, so a program that
// has read all of its flags can reject_unknown() the rest - a mistyped
// `--worker 4` exits 2 instead of running on defaults, and `--help` lists
// them.
#ifndef PUSCHPOOL_COMMON_CLI_H
#define PUSCHPOOL_COMMON_CLI_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace pp::common {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  // Value of "--name value", or fallback if absent.  A value flag given
  // last, with no value after it, prints a readable error and exits 2.
  std::string get(const std::string& name, const std::string& fallback) const {
    const std::string* v = value_of(name);
    return v ? *v : fallback;
  }

  // Value of "--name" as a validated non-negative 32-bit integer.
  // Malformed or negative values print a readable error and exit 2.
  uint32_t get_u32(const std::string& name, uint32_t fallback) const {
    const std::string* v = value_of(name);
    return v ? parse_u32_or_die(name, *v) : fallback;
  }

  // Value of "--name" as a validated double; malformed values print a
  // readable error and exit 2.  Range checks stay at the call site.
  double get_double(const std::string& name, double fallback) const {
    const std::string* v = value_of(name);
    return v ? parse_double_or_die(name, *v) : fallback;
  }

  // Value of "--name" as a comma-separated list of doubles ("0.5,1,2");
  // same error behavior as get_double().
  std::vector<double> get_double_list(const std::string& name,
                                      const std::string& fallback) const {
    const std::string s = get(name, fallback);
    std::vector<double> out;
    size_t start = 0;
    while (start <= s.size()) {
      const size_t end = s.find(',', start);
      const std::string tok = end == std::string::npos
                                  ? s.substr(start)
                                  : s.substr(start, end - start);
      out.push_back(parse_double_or_die(name, tok));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return out;
  }

  // Value of "--name" as a comma-separated list of non-negative 32-bit
  // integers ("64,256,1024"); same error behavior as get_u32().
  std::vector<uint32_t> get_u32_list(const std::string& name,
                                     const std::string& fallback) const {
    const std::string s = get(name, fallback);
    std::vector<uint32_t> out;
    size_t start = 0;
    while (start <= s.size()) {
      const size_t end = s.find(',', start);
      const std::string tok = end == std::string::npos
                                  ? s.substr(start)
                                  : s.substr(start, end - start);
      out.push_back(parse_u32_or_die(name, tok));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return out;
  }

  // Value of "--name" as a comma-separated list of strings
  // ("flat,tdl-a,tdl-c"); empty tokens are preserved so validation stays at
  // the call site.
  std::vector<std::string> get_str_list(const std::string& name,
                                        const std::string& fallback) const {
    const std::string s = get(name, fallback);
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
      const size_t end = s.find(',', start);
      out.push_back(end == std::string::npos ? s.substr(start)
                                             : s.substr(start, end - start));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return out;
  }

  // True if the bare flag "--name" appears anywhere.
  bool has(const std::string& name) const {
    note(name);
    for (const auto& a : args_) {
      if (a == name) return true;
    }
    return false;
  }

  // Prints the first "--flag" argument no getter was asked about, with the
  // flags that were, and exits 2; `--help` instead prints the flags that
  // were asked about to stdout and exits 0.  Call once every flag has been
  // read.
  void reject_unknown() const {
    if (std::find(args_.begin(), args_.end(), "--help") != args_.end()) {
      std::printf("accepted flags:");
      for (const auto& f : read_) std::printf(" %s", f.c_str());
      std::printf(" --help\n");
      std::exit(0);
    }
    for (const auto& a : args_) {
      if (a.rfind("--", 0) != 0 || is_read(a)) continue;
      std::fprintf(stderr, "unknown flag %s; accepted:", a.c_str());
      for (const auto& f : read_) std::fprintf(stderr, " %s", f.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }

 private:
  // The argument after "--name", or nullptr if the flag is absent; the
  // first occurrence wins.  Exits 2 if the flag is the last argument.
  const std::string* value_of(const std::string& name) const {
    note(name);
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] != name) continue;
      if (i + 1 == args_.size()) {
        std::fprintf(stderr, "missing value for %s\n", name.c_str());
        std::exit(2);
      }
      return &args_[i + 1];
    }
    return nullptr;
  }

  bool is_read(const std::string& name) const {
    return std::find(read_.begin(), read_.end(), name) != read_.end();
  }
  void note(const std::string& name) const {
    if (!is_read(name)) read_.push_back(name);
  }

  static double parse_double_or_die(const std::string& name,
                                    const std::string& tok) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end != tok.c_str() + tok.size()) {
      std::fprintf(stderr, "bad value '%s' for %s\n", tok.c_str(),
                   name.c_str());
      std::exit(2);
    }
    return v;
  }

  static uint32_t parse_u32_or_die(const std::string& name,
                                   const std::string& tok) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (tok.empty() || tok[0] == '-' || end != tok.c_str() + tok.size() ||
        v > 0xfffffffful) {
      std::fprintf(stderr, "bad value '%s' for %s\n", tok.c_str(),
                   name.c_str());
      std::exit(2);
    }
    return static_cast<uint32_t>(v);
  }

  std::vector<std::string> args_;
  mutable std::vector<std::string> read_;  // flag names asked about, in order
};

}  // namespace pp::common

#endif  // PUSCHPOOL_COMMON_CLI_H
