#include "topo/desc.hh"

namespace mcmgpu {
namespace topo {

namespace {

/** Parse a positive decimal integer spanning all of [b, e). */
bool
parseUint(const std::string &s, size_t b, size_t e, uint32_t &out)
{
    if (b >= e || e > s.size())
        return false;
    uint64_t v = 0;
    for (size_t i = b; i < e; ++i) {
        const char c = s[i];
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<uint64_t>(c - '0');
        if (v > 0xffffffffull)
            return false;
    }
    if (v == 0)
        return false;
    out = static_cast<uint32_t>(v);
    return true;
}

/** Parse "<A><sep><B>" with both sides positive integers. */
bool
parsePair(const std::string &body, char sep, uint32_t &a, uint32_t &b)
{
    const size_t p = body.find(sep);
    if (p == std::string::npos)
        return false;
    return parseUint(body, 0, p, a) &&
           parseUint(body, p + 1, body.size(), b);
}

} // namespace

const char *
kindName(TopoKind kind)
{
    switch (kind) {
      case TopoKind::Ring: return "ring";
      case TopoKind::Mesh2D: return "mesh2d";
      case TopoKind::RingOfRings: return "ring-of-rings";
      case TopoKind::Package: return "package";
      case TopoKind::Ports: return "ports";
    }
    return "?";
}

bool
parseTopology(const std::string &spec, TopologyDesc &out, std::string &error)
{
    out = TopologyDesc{};
    out.spec = spec;

    const size_t colon = spec.find(':');
    const std::string family = spec.substr(0, colon);
    const std::string body =
        colon == std::string::npos ? std::string() : spec.substr(colon + 1);

    // A ':' promises a parameter; an empty one is a typo, never a
    // request for the family's default.
    if (colon != std::string::npos && body.empty()) {
        error = "'" + family + ":' has an empty parameter";
        return false;
    }

    if (family == "ring" || family == "ports") {
        if (!body.empty()) {
            error = family + " takes no parameters";
            return false;
        }
        out.kind = family == "ring" ? TopoKind::Ring : TopoKind::Ports;
        return true;
    }
    if (family == "mesh2d") {
        out.kind = TopoKind::Mesh2D;
        if (body.empty() || body == "auto")
            return true; // most-square grid derived from num_modules
        if (!parsePair(body, 'x', out.mesh_rows, out.mesh_cols)) {
            error = "mesh2d wants RxC with positive dims (e.g. mesh2d:2x2)";
            return false;
        }
        return true;
    }
    if (family == "ring-of-rings") {
        out.kind = TopoKind::RingOfRings;
        if (!parsePair(body, '/', out.groups, out.ring_stops)) {
            error = "ring-of-rings wants G/R with positive counts "
                    "(e.g. ring-of-rings:2/2)";
            return false;
        }
        return true;
    }
    if (family == "package") {
        out.kind = TopoKind::Package;
        if (!parseUint(body, 0, body.size(), out.packages)) {
            error = "package wants a positive package count "
                    "(e.g. package:2)";
            return false;
        }
        return true;
    }
    error = "unknown topology family '" + family +
            "' (ring | mesh2d:RxC | ring-of-rings:G/R | package:P | ports)";
    return false;
}

} // namespace topo
} // namespace mcmgpu
