import ast
import inspect

from detseg import assign, evaluation, geom, oracles, post

# The vectorised code the oracles check; an oracle that called any of it
# would agree with it by construction. The scalar encode/decode wrap the
# vectorised codec, so they count as it.
CHECKED = {
    geom.iou_matrix,
    geom.encode_array,
    geom.decode_array,
    geom.encode,
    geom.decode,
    assign.assign_targets,
    assign.assign_targets_detailed,
    post.nms,
    evaluation.match_detections,
    evaluation.average_precision,
}


def test_oracles_share_no_code_with_what_they_check():
    bound = [name for name, value in vars(oracles).items() if any(value is f for f in CHECKED)]
    assert bound == []
    tree = ast.parse(inspect.getsource(oracles))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert used.isdisjoint(f.__name__ for f in CHECKED)
