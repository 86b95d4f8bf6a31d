"""Class tables: segmentation ids, instanceable flags, detection classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["ClassTable", "synthetic_table", "cityscapes_table"]


@dataclass(frozen=True)
class ClassTable:
    """Ordered class names with instanceable and detection subsets.

    The segmentation id of a class is its position in ``names``; the
    detection id of a detection class is its position in ``detection``.
    Detection classes must be instanceable (boxes come from instances).
    """

    names: tuple[str, ...]
    instanceable: frozenset[str]
    detection: tuple[str, ...]
    categories: Optional[Mapping[str, tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")
        if len(set(self.detection)) != len(self.detection):
            raise ValueError("detection classes must be unique")
        unknown = self.instanceable - set(self.names)
        if unknown:
            raise ValueError(f"instanceable classes not in table: {sorted(unknown)}")
        bad = [d for d in self.detection if d not in self.instanceable]
        if bad:
            raise ValueError(f"detection classes must be instanceable: {bad}")
        if self.categories is not None:
            for cat, members in self.categories.items():
                missing = [m for m in members if m not in self.names]
                if missing:
                    raise ValueError(f"category {cat!r} references unknown classes: {missing}")

    @property
    def num_classes(self) -> int:
        return len(self.names)

    @property
    def num_detection_classes(self) -> int:
        return len(self.detection)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown class {name!r}") from None

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]

    def detection_id_of(self, name: str) -> int:
        try:
            return self.detection.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a detection class") from None

    def detection_name(self, detection_id: int) -> str:
        return self.detection[detection_id]

    def instanceable_ids(self) -> tuple[int, ...]:
        return tuple(i for i, n in enumerate(self.names) if n in self.instanceable)

    def category_ids(self) -> Optional[dict[str, tuple[int, ...]]]:
        if self.categories is None:
            return None
        return {
            cat: tuple(self.id_of(m) for m in members)
            for cat, members in self.categories.items()
        }

    def to_json(self) -> dict:
        out = {
            "names": list(self.names),
            "instanceable": sorted(self.instanceable),
            "detection": list(self.detection),
        }
        if self.categories is not None:
            out["categories"] = {k: list(v) for k, v in self.categories.items()}
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "ClassTable":
        """``data`` must already satisfy ``pipeline.config.CLASS_TABLE_SCHEMA``."""
        return cls(
            names=tuple(data["names"]),
            instanceable=frozenset(data["instanceable"]),
            detection=tuple(data["detection"]),
            categories={k: tuple(v) for k, v in data["categories"].items()}
            if "categories" in data and data["categories"] is not None
            else None,
        )


def synthetic_table() -> ClassTable:
    """The class set of the built-in synthetic scenes."""
    return ClassTable(
        names=("background", "rect", "ellipse"),
        instanceable=frozenset({"rect", "ellipse"}),
        detection=("rect", "ellipse"),
        categories={"background": ("background",), "shape": ("rect", "ellipse")},
    )


def cityscapes_table() -> ClassTable:
    """The 19 evaluation classes with their categories."""
    names = (
        "road", "sidewalk", "building", "wall", "fence", "pole",
        "traffic light", "traffic sign", "vegetation", "terrain", "sky",
        "person", "rider", "car", "truck", "bus", "train", "motorcycle",
        "bicycle",
    )
    instanceable = frozenset({
        "person", "rider", "car", "truck", "bus", "train", "motorcycle", "bicycle",
    })
    categories = {
        "flat": ("road", "sidewalk"),
        "construction": ("building", "wall", "fence"),
        "object": ("pole", "traffic light", "traffic sign"),
        "nature": ("vegetation", "terrain"),
        "sky": ("sky",),
        "human": ("person", "rider"),
        "vehicle": ("car", "truck", "bus", "train", "motorcycle", "bicycle"),
    }
    return ClassTable(
        names=names,
        instanceable=instanceable,
        detection=("car", "person"),
        categories=categories,
    )
