"""Lint fixture: fully admissible structure + check.  Expect NO findings.

Exercises every shape the analyzer must accept: a tracked class whose
mutators go through the barrier, a registered helper with only coverable
depth-1 reads, a recursive check, and an immutable module constant.
"""

from repro import TrackedObject, check, register_pure_helper

FLOOR = 0


class Node(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next

    def push(self, value):
        self.next = Node(value, self.next)


@register_pure_helper
def value_ok(node):
    return node.value >= FLOOR


@check
def non_negative(node):
    if node is None:
        return True
    if not value_ok(node):
        return False
    return non_negative(node.next)
