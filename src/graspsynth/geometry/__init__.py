"""Mesh and point-cloud kernel: SDF queries, sampling, voxels, chamfer."""

from .chamfer import chamfer
from .grid import OccupancyGrid, SdfGrid, iou, sdf_grid_from_mesh, voxelize
from .mesh import (TriMesh, bbox_diagonal, load_mesh, load_point_cloud,
                   merge_meshes, save_obj, save_ply)
from .primitives import (Primitive, primitive_sdf, row_norms, tessellate,
                         union_sdf)
from .sampling import SurfaceSamples, sample_surface
from .sdf import MeshSDF, TriangleBVH, winding_numbers

__all__ = [
    "TriMesh", "SurfaceSamples", "OccupancyGrid", "SdfGrid", "Primitive",
    "MeshSDF", "TriangleBVH",
    "bbox_diagonal", "chamfer", "iou", "load_mesh", "load_point_cloud",
    "merge_meshes", "primitive_sdf", "row_norms", "sample_surface",
    "save_obj", "save_ply", "sdf_grid_from_mesh", "tessellate", "union_sdf",
    "voxelize",
    "winding_numbers",
]
