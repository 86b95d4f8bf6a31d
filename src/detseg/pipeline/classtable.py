"""Class tables: segmentation ids, instanceable flags, detection classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..losses import SEG_IGNORE

__all__ = ["ClassTable", "synthetic_table"]


@dataclass(frozen=True)
class ClassTable:
    """Ordered class names with instanceable and detection subsets.

    The segmentation id of a class is its position in ``names``; the
    detection id of a detection class is its position in ``detection``.
    Detection classes must be instanceable (boxes come from instances).
    Label maps are 8-bit with ``SEG_IGNORE`` (255) for unlabelled pixels,
    so a table holds at most 255 classes.
    """

    names: tuple[str, ...]
    instanceable: frozenset[str]
    detection: tuple[str, ...]
    categories: Optional[Mapping[str, tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if len(self.names) > SEG_IGNORE:
            raise ValueError(f"at most {SEG_IGNORE} classes fit 8-bit label maps, got {len(self.names)}")
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

    def instanceable_ids(self) -> tuple[int, ...]:
        return tuple(i for i, n in enumerate(self.names) if n in self.instanceable)

    def category_ids(self) -> Optional[dict[str, tuple[int, ...]]]:
        if self.categories is None:
            return None
        return {
            cat: tuple(self.names.index(m) for m in members)
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
