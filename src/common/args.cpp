#include "common/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tdmd {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser::Flag& ArgParser::Register(const std::string& name, Kind kind,
                                     const std::string& help) {
  auto [it, inserted] = flags_.try_emplace(name);
  if (!inserted) {
    Fail("duplicate flag registration: --" + name);
  }
  it->second.kind = kind;
  it->second.help = help;
  return it->second;
}

const std::int64_t* ArgParser::AddInt(const std::string& name,
                                      std::int64_t def,
                                      const std::string& help) {
  Flag& flag = Register(name, Kind::kInt, help);
  flag.int_value = def;
  flag.default_repr = ValueRepr(flag);
  return &flag.int_value;
}

const double* ArgParser::AddDouble(const std::string& name, double def,
                                   const std::string& help) {
  Flag& flag = Register(name, Kind::kDouble, help);
  flag.double_value = def;
  flag.default_repr = ValueRepr(flag);
  return &flag.double_value;
}

const bool* ArgParser::AddBool(const std::string& name, bool def,
                               const std::string& help) {
  Flag& flag = Register(name, Kind::kBool, help);
  flag.bool_value = def;
  flag.default_repr = ValueRepr(flag);
  return &flag.bool_value;
}

const std::string* ArgParser::AddString(const std::string& name,
                                        std::string def,
                                        const std::string& help) {
  Flag& flag = Register(name, Kind::kString, help);
  flag.string_value = std::move(def);
  flag.default_repr = ValueRepr(flag);
  return &flag.string_value;
}

std::string ArgParser::ValueRepr(const Flag& flag) {
  switch (flag.kind) {
    case Kind::kInt:
      return std::to_string(flag.int_value);
    case Kind::kDouble: {
      std::ostringstream oss;
      oss << flag.double_value;
      return oss.str();
    }
    case Kind::kBool:
      return flag.bool_value ? "true" : "false";
    case Kind::kString:
      return flag.string_value;
  }
  return {};
}

bool ArgParser::IsDefault(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    Fail("IsDefault on unregistered flag --" + name);
  }
  return ValueRepr(it->second) == it->second.default_repr;
}

std::optional<std::int64_t> ArgParser::BoundedInt(const std::string& name,
                                                  std::int64_t lo,
                                                  std::int64_t hi,
                                                  std::string* error) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.kind != Kind::kInt) {
    Fail("BoundedInt on unregistered or non-int flag --" + name);
  }
  const std::int64_t value = it->second.int_value;
  if (value >= lo && value <= hi) return value;
  std::string reason = "--" + name + "=" + std::to_string(value);
  if (hi == std::numeric_limits<std::int64_t>::max()) {
    reason += " is below its minimum " + std::to_string(lo);
  } else {
    reason += " is outside [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "]";
  }
  *error = std::move(reason);
  return std::nullopt;
}

void ArgParser::SetFromString(const std::string& name, Flag& flag,
                              const std::string& value) {
  try {
    switch (flag.kind) {
      case Kind::kInt:
        flag.int_value = std::stoll(value);
        break;
      case Kind::kDouble:
        flag.double_value = std::stod(value);
        break;
      case Kind::kBool:
        if (value == "true" || value == "1") {
          flag.bool_value = true;
        } else if (value == "false" || value == "0") {
          flag.bool_value = false;
        } else {
          Fail("--" + name + " expects true/false, got '" + value + "'");
        }
        break;
      case Kind::kString:
        flag.string_value = value;
        break;
    }
  } catch (const std::exception&) {
    Fail("could not parse value '" + value + "' for flag --" + name);
  }
}

void ArgParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      Fail("unknown flag --" + name);
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        flag.bool_value = true;  // bare --flag
        continue;
      }
      if (i + 1 >= argc) {
        Fail("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    SetFromString(name, flag, value);
  }
}

std::string ArgParser::Usage() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    oss << "  --" << name << " (default: " << flag.default_repr << ")\n"
        << "      " << flag.help << "\n";
  }
  return oss.str();
}

void ArgParser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), message.c_str(),
               Usage().c_str());
  std::exit(2);
}

}  // namespace tdmd
