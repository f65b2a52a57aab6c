#include "src/core/pressure_presets.hpp"

namespace abp::core {

std::string pressure_kind_name(PressureKind kind) {
  switch (kind) {
    case PressureKind::Identity:
      return "identity";
    case PressureKind::Sqrt:
      return "sqrt";
    case PressureKind::Quadratic:
      return "quadratic";
    case PressureKind::Normalized:
      return "normalized";
  }
  return "?";
}

}  // namespace abp::core
