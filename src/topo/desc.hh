/**
 * @file
 * Declarative fabric topology description: the parsed form of the
 * `--topology` spec string. The grammar (docs/TOPOLOGY.md):
 *
 *   ring                   bidirectional ring over all GPMs
 *   mesh2d[:RxC]           R-by-C 2D mesh, dimension-ordered routing
 *                          (bare or :auto = most-square grid)
 *   ring-of-rings:G/R      G local rings of R stops + an express ring
 *                          over the group gateways
 *   package:P              P packages of num_modules/P GPMs; local
 *                          rings on package, board-class (NVLink-like)
 *                          links between package gateways
 *   ports                  section 3.3.1's port model: one egress and
 *                          one ingress port per GPM through a switch
 *
 * This header is deliberately free of GpuConfig: common/config.cc
 * includes it to validate topology specs, so depending on config.hh
 * here would cycle.
 */

#ifndef MCMGPU_TOPO_DESC_HH
#define MCMGPU_TOPO_DESC_HH

#include <cstdint>
#include <string>

namespace mcmgpu {
namespace topo {

/** The topology families the compiler knows how to build. */
enum class TopoKind
{
    Ring,        //!< one bidirectional ring over every module
    Mesh2D,      //!< R x C grid, XY (dimension-ordered) routing
    RingOfRings, //!< hierarchical: local rings + gateway express ring
    Package,     //!< multi-package board: per-package rings + board links
    Ports,       //!< per-module egress/ingress ports via one switch
};

/** Parsed form of one topology spec string. */
struct TopologyDesc
{
    TopoKind kind = TopoKind::Ring;
    uint32_t mesh_rows = 0;  //!< Mesh2D: grid rows (R)
    uint32_t mesh_cols = 0;  //!< Mesh2D: grid columns (C)
    uint32_t groups = 0;     //!< RingOfRings: local rings (G)
    uint32_t ring_stops = 0; //!< RingOfRings: stops per local ring (R)
    uint32_t packages = 0;   //!< Package: package count (P)
    std::string spec;        //!< original text, for diagnostics

    /** "0x0" placeholder dims mean "derive the most-square grid that
     *  fits the module count" (bare "mesh2d" or "mesh2d:auto"). */
    bool meshAuto() const
    { return kind == TopoKind::Mesh2D && mesh_rows == 0; }
};

/**
 * Parse @p spec into @p out. On failure returns false and fills
 * @p error with a one-line reason (unknown family, malformed dims,
 * zero counts); @p out is unspecified then.
 */
bool parseTopology(const std::string &spec, TopologyDesc &out,
                   std::string &error);

/** Display name of a topology family ("ring", "mesh2d", ...). */
const char *kindName(TopoKind kind);

} // namespace topo
} // namespace mcmgpu

#endif // MCMGPU_TOPO_DESC_HH
